"""Shared infrastructure for the benchmark harness.

Every ``bench_*.py`` file regenerates one table or figure of the paper:
run ``pytest benchmarks/ --benchmark-only`` for the timed variants, or
``python benchmarks/bench_<name>.py`` to print the paper-style rows
(paper values side by side with measured values).  EXPERIMENTS.md is the
curated record of one such run.

Times here are wall-clock medians on the scaled workloads; parallel
results are produced by replaying measured per-task costs through the
dynamic-scheduling simulator at each platform's thread count (see
DESIGN.md's substitution table).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.core.tiled_co import tiled_co_contract
from repro.data.registry import all_cases, get_case
from repro.machine.specs import DESKTOP, SERVER, MachineSpec
from repro.parallel.scheduler_sim import simulate_dynamic_schedule

__all__ = [
    "load_operands",
    "linearized_case",
    "time_fastcc",
    "time_method",
    "row_task_costs",
    "simulated_parallel_time",
    "simulate_sparta_parallel",
    "tile_candidates",
    "FROSTT_ORDER",
    "QUANTUM_ORDER",
]

def quick_mode() -> bool:
    """Whether ``run_all.py --quick`` (or the env var) is in effect."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def effective_repeats(repeats: int) -> int:
    """Clamp a harness's repeat count to 1 under quick mode."""
    return 1 if quick_mode() else max(1, repeats)


#: Table 3 row order.
FROSTT_ORDER = [
    "chic_0", "chic_01", "chic_123", "uber_02", "uber_123",
    "vast_01", "vast_014", "NIPS_2", "NIPS_23", "NIPS_013",
]
QUANTUM_ORDER = ["G-ovov", "G-vvoo", "G-vvov", "C-ovov", "C-vvoo", "C-vvov"]


@lru_cache(maxsize=32)
def load_operands(case_name: str):
    """Load a registry case and pre-linearize it (cached per process).

    Returns ``(spec, left_op, right_op)``.  Caching keeps repeated
    benchmark invocations from regenerating multi-100k-nnz tensors.
    """
    case = get_case(case_name)
    left, right, pairs = case.load()
    spec = ContractionSpec(left.shape, right.shape, pairs)
    left_op = spec.linearize_left(left).sum_duplicates()
    right_op = spec.linearize_right(right).sum_duplicates()
    return spec, left_op, right_op


def linearized_case(case_name: str):
    """Alias of :func:`load_operands` kept for readability at call sites."""
    return load_operands(case_name)


@dataclass
class FastccRun:
    """One measured FaSTCC execution.

    ``task_costs`` are per tile pair, aligned with ``task_pairs`` (the
    kernel's LPT pair order); :func:`row_task_costs` sums them into the
    row tasks the kernel actually schedules.
    """

    seconds: float
    task_costs: np.ndarray
    task_pairs: list
    output_nnz: int
    plan_accumulator: str
    tile: int
    phase_seconds: dict


def time_fastcc(
    case_name: str,
    *,
    machine: MachineSpec = DESKTOP,
    accumulator: str = "auto",
    tile_size: int | None = None,
    repeats: int = 1,
) -> FastccRun:
    """Run the FaSTCC kernel on a registry case and measure it.

    Runs single-threaded so per-task costs are exact; parallel times are
    derived with :func:`simulated_parallel_time`.
    """
    spec, left_op, right_op = load_operands(case_name)
    plan = choose_plan(
        spec, left_op.nnz, right_op.nnz, machine,
        accumulator=accumulator, tile_size=tile_size,
    )
    best = None
    for _ in range(effective_repeats(repeats)):
        t0 = time.perf_counter()
        _, _, values, stats = tiled_co_contract(left_op, right_op, plan)
        dt = time.perf_counter() - t0
        if best is None or dt < best.seconds:
            best = FastccRun(
                seconds=dt,
                task_costs=stats.task_costs,
                task_pairs=stats.task_pairs,
                output_nnz=int(values.shape[0]),
                plan_accumulator=plan.accumulator,
                tile=plan.tile_l,
                phase_seconds=dict(stats.phase_seconds),
            )
    return best


def time_method(case_name: str, method: str, *, repeats: int = 1) -> float:
    """Wall-clock seconds of a baseline *kernel* on a registry case.

    Operates on the same pre-linearized operands as :func:`time_fastcc`
    so comparisons are kernel-vs-kernel: the linearize/delinearize
    phases are identical between methods (the paper charges them to
    every system equally) and cancel out of the speedup ratios.
    """
    from repro.baselines.sparta import sparta_contract
    from repro.baselines.sparta_improved import sparta_improved_contract
    from repro.baselines.taco import taco_contract
    from repro.baselines.schemes import contract_untiled

    _, left_op, right_op = load_operands(case_name)
    kernels = {
        "sparta": sparta_contract,
        "sparta_improved": sparta_improved_contract,
        "taco": taco_contract,
    }
    if method in kernels:
        fn = kernels[method]

        def run():
            fn(left_op, right_op)
    else:
        def run():
            contract_untiled(method, left_op, right_op)

    best = float("inf")
    for _ in range(effective_repeats(repeats)):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def row_task_costs(run: FastccRun) -> np.ndarray:
    """Cost of each row task (one per nonempty left tile), in submit order.

    The kernel submits rows by descending ``nnz(HL_i)``.  A row's first
    pair in the LPT pair order is its heaviest, ``nnz(HL_i)`` times the
    heaviest right tile, so the rows' first appearances in
    ``task_pairs`` are exactly that submit order (ties by ascending
    ``i`` on both sides).
    """
    rows = np.array([i for i, _ in run.task_pairs], dtype=np.int64)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=run.task_costs, minlength=first.shape[0])
    return sums[np.argsort(first)]


def simulated_parallel_time(run: FastccRun, n_threads: int) -> float:
    """Replay a measured FaSTCC run at ``n_threads``.

    The row tasks are replayed through the dynamic scheduler in the
    kernel's submit order; the non-task phases (table construction,
    output merge) are scaled conservatively — table construction
    parallelizes across tiles (the paper splits threads between the two
    operands), the merge is serial.
    """
    kernel = simulate_dynamic_schedule(row_task_costs(run), n_threads).makespan
    build = run.phase_seconds.get("build_tables", 0.0) / min(n_threads, 4)
    merge = run.phase_seconds.get("merge_output", 0.0)
    return kernel + build + merge


def simulate_sparta_parallel(case_name: str, total_seconds: float, n_threads: int) -> float:
    """Replay a measured Sparta run at ``n_threads``.

    Sparta parallelizes over left slices; per-slice costs are estimated
    by distributing the measured total proportionally to each slice's
    multiply-accumulate work (computable exactly from the operands).
    """
    _, left_op, right_op = load_operands(case_name)
    # Work per distinct l: sum over its fiber of nnz_R(c).
    c_keys, c_counts = np.unique(right_op.con, return_counts=True)
    pos = np.searchsorted(c_keys, left_op.con)
    pos_clamped = np.minimum(pos, len(c_keys) - 1) if len(c_keys) else pos
    match = len(c_keys) > 0
    weight = np.zeros(left_op.nnz)
    if match:
        hit = c_keys[pos_clamped] == left_op.con
        weight[hit] = c_counts[pos_clamped[hit]]
    weight += 1.0  # fiber traversal cost
    order = np.argsort(left_op.ext, kind="stable")
    sorted_ext = left_op.ext[order]
    sorted_w = weight[order]
    boundaries = np.flatnonzero(
        np.concatenate([[True], sorted_ext[1:] != sorted_ext[:-1]])
    )
    per_l = np.add.reduceat(sorted_w, boundaries)
    total_work = per_l.sum()
    if total_work <= 0:
        return total_seconds / n_threads
    costs = total_seconds * per_l / total_work
    return simulate_dynamic_schedule(costs, n_threads).makespan


def tile_candidates(spec: ContractionSpec, *, span: int = 4) -> list[int]:
    """Powers of two around the model-relevant range for a tile sweep."""
    import math

    hi = max(spec.L, spec.R)
    top = 1 << int(math.ceil(math.log2(max(2, hi))))
    tiles = []
    t = top
    for _ in range(2 * span + 1):
        if t < 2:
            break
        tiles.append(t)
        t //= 2
    return sorted(tiles)
