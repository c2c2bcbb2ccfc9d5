"""Parallel runtime substrate.

FaSTCC parallelizes tile-pair contractions with a Taskflow task queue and
builds per-thread COO output through a memory pool (paper Section 4.2).
This package provides:

* :mod:`repro.parallel.taskqueue` — a dynamic work queue over Python
  threads (the Taskflow substitute);
* :mod:`repro.parallel.scheduler_sim` — a deterministic simulator that
  replays measured per-task costs under dynamic scheduling with ``k``
  workers; it produces the thread-scaling results for platforms this
  environment cannot run natively (DESIGN.md substitution table); and
* :mod:`repro.parallel.memory_pool` — chunked append-only COO builders
  (the 512 MB-chunk pool of the paper, with a configurable chunk size).
  The kernel itself does not use them: it concatenates the drained
  per-pair blocks once, in LPT rank order.
"""

from repro.parallel.memory_pool import COOBuilder, PoolStats
from repro.parallel.scheduler_sim import ScheduleResult, simulate_dynamic_schedule
from repro.parallel.taskqueue import TaskQueue, TaskRecord

from repro.parallel.scheduler_sim import scaling_curve

__all__ = [
    "COOBuilder",
    "PoolStats",
    "TaskQueue",
    "TaskRecord",
    "ScheduleResult",
    "simulate_dynamic_schedule",
    "scaling_curve",
]
