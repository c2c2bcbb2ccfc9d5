"""Parallel runtime substrate.

FaSTCC parallelizes tile-pair contractions with a Taskflow task queue
(paper Section 4.2).  This package provides:

* :mod:`repro.parallel.taskqueue` — a dynamic work queue over Python
  threads (the Taskflow substitute);
* :mod:`repro.parallel.scheduler_sim` — a deterministic simulator that
  replays measured per-task costs under dynamic scheduling with ``k``
  workers; it produces the thread-scaling results for platforms this
  environment cannot run natively (DESIGN.md substitution table).

The paper's per-thread COO memory pool has no counterpart: the kernel
concatenates the drained per-pair blocks once, in LPT rank order.
"""

from repro.parallel.scheduler_sim import ScheduleResult, simulate_dynamic_schedule
from repro.parallel.taskqueue import TaskQueue, TaskRecord

from repro.parallel.scheduler_sim import scaling_curve

__all__ = [
    "TaskQueue",
    "TaskRecord",
    "ScheduleResult",
    "simulate_dynamic_schedule",
    "scaling_curve",
]
