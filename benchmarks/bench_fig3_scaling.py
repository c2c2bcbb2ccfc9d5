"""Figure 3 reproduction: FaSTCC kernel thread scaling, 1 to 64 threads.

The paper's Figure 3 plots the factor improvement of the FaSTCC kernel
over its own single-thread execution as the thread count grows from 1
to 64 on the server.  This harness measures per-tile-pair costs on one
real core, sums them into the kernel's row tasks (one per nonempty left
tile) and replays those through the dynamic-scheduling simulator at
each thread count (the DESIGN.md platform substitution).

Shape to check: near-linear scaling while the task count and task-cost
balance allow it, flattening when (a) tasks run out (speedup is capped
by the number of row tasks) or (b) a few heavy rows dominate (the
critical-path bound).  The simulator omits memory-bandwidth contention,
so measured-silicon curves would sit somewhat below these (noted in
EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import render_series, render_table
from repro.parallel.scheduler_sim import simulate_dynamic_schedule

from common import row_task_costs, simulated_parallel_time, time_fastcc

THREADS = [1, 2, 4, 8, 16, 32, 64]

#: Representative cases: a tile-rich dense case, a construction-bound
#: case, a sparse-accumulator case, and two QC contractions.
CASES = ["chic_0", "uber_02", "NIPS_2", "G-vvov", "C-vvov"]


def scaling_for(case_name: str, repeats: int = 2):
    run = time_fastcc(case_name, repeats=repeats)
    base = simulated_parallel_time(run, 1)
    return {k: base / simulated_parallel_time(run, k) for k in THREADS}, run


def build_rows(repeats: int = 2):
    rows = []
    for name in CASES:
        curve, run = scaling_for(name, repeats=repeats)
        rows.append(
            [name, row_task_costs(run).shape[0], run.task_costs.shape[0]]
            + [curve[k] for k in THREADS]
        )
    return rows


def main():
    rows = build_rows()
    print("Figure 3 — FaSTCC kernel self-speedup vs thread count")
    print(
        render_table(
            ["case", "rows", "pairs"] + [f"{k}t" for k in THREADS],
            rows,
        )
    )
    print(
        "\nspeedup saturates at min(row count, balance bound): cases with"
        " few row tasks flatten early, tile-rich cases scale further."
    )

    # Section 4.2's scheduling claim: dynamic mapping beats a static
    # partition of the same tasks.
    from repro.parallel.scheduler_sim import simulate_static_schedule

    print("\ndynamic vs static task mapping at 8 threads "
          "(kernel makespan ratio, >1 = dynamic wins):")
    for name in CASES:
        costs = row_task_costs(time_fastcc(name))
        if costs.shape[0] < 8:
            continue
        dyn = simulate_dynamic_schedule(costs, 8).makespan
        block = simulate_static_schedule(costs, 8, policy="block").makespan
        cyc = simulate_static_schedule(costs, 8, policy="cyclic").makespan
        print(f"  {name:10s} vs block: {block / dyn:5.2f}x   "
              f"vs cyclic: {cyc / dyn:5.2f}x")


# ---------------------------------------------------------------------------
# pytest entries
# ---------------------------------------------------------------------------


def test_scaling_monotone_nondecreasing():
    curve, _ = scaling_for("chic_0", repeats=1)
    values = [curve[k] for k in THREADS]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_tile_rich_case_scales():
    """uber_02 has the most row tasks (17): 8-thread speedup must be
    substantial (>3.5x) and 64-thread speedup no lower."""
    curve, run = scaling_for("uber_02", repeats=2)
    rows = row_task_costs(run).shape[0]
    assert rows >= 16
    assert curve[8] > 3.5
    assert curve[64] >= curve[8]

    # And bounded by the row count.
    assert curve[64] <= rows + 1


def test_task_poor_case_saturates():
    """A case with very few rows cannot scale its *kernel* past the
    row count (the parallel section is the row-task queue)."""
    costs = row_task_costs(time_fastcc("uber_123"))
    k1 = simulate_dynamic_schedule(costs, 1).makespan
    k64 = simulate_dynamic_schedule(costs, 64).makespan
    assert k1 / max(k64, 1e-12) <= costs.shape[0] + 1e-9


def test_simulator_self_consistency():
    """Simulated 1-thread kernel time equals the sum of pair costs."""
    run = time_fastcc("chic_123")
    sim = simulate_dynamic_schedule(row_task_costs(run), 1)
    assert sim.makespan == pytest.approx(run.task_costs.sum(), rel=1e-9)


@pytest.mark.parametrize("case_name", ["chic_0"])
def test_kernel_measurement(benchmark, case_name):
    benchmark.pedantic(lambda: time_fastcc(case_name), rounds=2, iterations=1)


if __name__ == "__main__":
    main()
