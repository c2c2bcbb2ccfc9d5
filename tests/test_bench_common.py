"""Unit tests for the benchmark harness's row-task replay
(``benchmarks/common.py``), which Figures 2 and 3 are derived from."""

import os
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
sys.path.insert(0, os.path.abspath(BENCH_DIR))

from common import (  # noqa: E402
    FastccRun,
    row_task_costs,
    simulated_parallel_time,
    time_fastcc,
)

THREADS = [1, 2, 3, 4, 8, 64]


def synthetic_run():
    # LPT pair order of a 3x2 grid with nnz_l = (2, 5, 5), nnz_r = (1, 3):
    # rows submit as 1, 2, 0 (descending nnz_l, ties by ascending i).
    pairs = [(1, 1), (2, 1), (0, 1), (1, 0), (2, 0), (0, 0)]
    costs = np.array([4.0, 3.0, 0.5, 1.0, 2.0, 0.25])
    return FastccRun(
        seconds=0.0, task_costs=costs, task_pairs=pairs, output_nnz=0,
        plan_accumulator="dense", tile=8,
        phase_seconds={"build_tables": 0.2, "merge_output": 0.1},
    )


class TestRowReplay:
    def test_rows_summed_in_submit_order(self):
        np.testing.assert_allclose(row_task_costs(synthetic_run()), [5.0, 5.0, 0.75])

    def test_empty_run_has_no_rows(self):
        run = synthetic_run()
        run.task_costs, run.task_pairs = np.empty(0), []
        assert row_task_costs(run).shape == (0,)
        assert simulated_parallel_time(run, 4) == pytest.approx(0.2 / 4 + 0.1)

    @pytest.mark.parametrize("case", [None, "chic_0", "G-vvov"])
    def test_replay_bounds(self, case):
        run = synthetic_run() if case is None else time_fastcc(case)
        rows = row_task_costs(run)
        assert rows.sum() == pytest.approx(run.task_costs.sum(), rel=1e-12)
        build = run.phase_seconds.get("build_tables", 0.0)
        merge = run.phase_seconds.get("merge_output", 0.0)
        assert simulated_parallel_time(run, 1) == pytest.approx(
            run.task_costs.sum() + build + merge, rel=1e-12
        )
        for k in THREADS:
            kernel = simulated_parallel_time(run, k) - build / min(k, 4) - merge
            assert kernel >= rows.max() * (1 - 1e-12)
