"""Dynamic task queue over worker threads (Taskflow substitute).

FaSTCC defines each tile-pair contraction as a task and lets a run-time
queue map tasks to threads, which keeps load imbalance low compared to a
static partition of the nonzeros (paper Section 4.2).  This module
provides the same contract: submit a list of task callables, run them on
``n_workers`` threads pulling from a shared queue, and record per-task
timing so the scheduling simulator can replay the run at other thread
counts.

Under CPython's GIL only NumPy-heavy sections overlap, so wall-clock
speedups here are modest; the recorded per-task costs are the faithful
quantity, and :mod:`repro.parallel.scheduler_sim` turns them into the
platform-scale results.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SchedulerError

__all__ = ["TaskQueue", "TaskRecord"]


@dataclass
class TaskRecord:
    """Execution record of a single task."""

    task_id: int
    worker: int
    start: float
    end: float
    result: object = None

    @property
    def cost(self) -> float:
        """Measured task duration in seconds."""
        return self.end - self.start


class TaskQueue:
    """Run a batch of independent tasks with dynamic scheduling.

    Parameters
    ----------
    n_workers:
        Worker thread count.  ``1`` runs inline on the calling thread
        (no threading overhead), which is also the deterministic mode
        used when benchmarks record per-task costs.
    """

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise SchedulerError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)

    def run(self, tasks: Sequence[Callable[[], object]]) -> list[TaskRecord]:
        """Execute every task; returns records ordered by task id.

        Any task exception is re-raised in the caller after all workers
        stop (remaining queued tasks are abandoned).
        """
        if self.n_workers == 1:
            return self._run_inline(tasks)
        return self._run_threaded(tasks)

    def _run_inline(self, tasks: Sequence[Callable[[], object]]) -> list[TaskRecord]:
        records = []
        for tid, task in enumerate(tasks):
            t0 = time.perf_counter()
            result = task()
            t1 = time.perf_counter()
            records.append(TaskRecord(tid, 0, t0, t1, result))
        return records

    def _run_threaded(self, tasks: Sequence[Callable[[], object]]) -> list[TaskRecord]:
        queue: deque[tuple[int, Callable[[], object]]] = deque(enumerate(tasks))
        records: list[TaskRecord | None] = [None] * len(tasks)
        lock = threading.Lock()
        failure: list[BaseException] = []

        def worker(worker_id: int) -> None:
            while True:
                with lock:
                    if failure or not queue:
                        return
                    tid, task = queue.popleft()
                t0 = time.perf_counter()
                try:
                    result = task()
                except BaseException as exc:  # noqa: BLE001 - reraised below
                    with lock:
                        failure.append(exc)
                    return
                t1 = time.perf_counter()
                records[tid] = TaskRecord(tid, worker_id, t0, t1, result)

        threads = [
            threading.Thread(target=worker, args=(w,), daemon=True)
            for w in range(min(self.n_workers, max(1, len(tasks))))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failure:
            raise failure[0]
        done: list[TaskRecord] = [r for r in records if r is not None]
        if len(done) != len(tasks):  # pragma: no cover - defensive
            raise SchedulerError("task queue finished with missing records")
        return done
