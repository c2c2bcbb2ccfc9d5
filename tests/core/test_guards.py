"""The kernel guards' verdict: :mod:`repro.core.guards`.

The planned verdict against Table 3 and the kernel is
``tests/staticcheck/test_parity.py``.
"""

import pytest

from repro import contract
from repro.__main__ import main
from repro.core.guards import (
    DEFAULT_DENSE_CELL_GUARD,
    DEFAULT_MAX_TASKS,
    guard_verdict,
    plan_guard,
)
from repro.data.registry import get_case
from repro.errors import WorkspaceLimitError


class TestGuardVerdict:
    def test_task_guard_checked_first(self):
        v = guard_verdict("dense", 1 << 14, 1 << 14, 2, 2, max_tasks=3)
        assert v.verdict == "dnf"
        assert "task guard (3)" in v.reason
        assert v.tasks == 4

    def test_sparse_tiles_have_no_cells(self):
        v = guard_verdict("sparse", 1 << 20, 1 << 20)
        assert v.verdict == "ok"
        v.enforce()

    def test_empty_grid_allocates_nothing(self):
        big = DEFAULT_DENSE_CELL_GUARD + 1
        assert guard_verdict("dense", big, 1, 0, 5).verdict == "ok"

    def test_plan_bound_is_min_of_grid_and_nnz(self):
        # 1954 tiles per side, but the left operand fits in 3 of them.
        v = plan_guard("dense", 10**6, 10**6, 512, 512, 3, 10**6)
        assert (v.verdict, v.tasks) == ("ok", 3 * 1954)
        assert plan_guard("dense", 10**6, 10**6, 512, 512, 10**6, 10**6).tasks \
            == 1954 * 1954 > DEFAULT_MAX_TASKS

    def test_kernel_raises_the_verdict_message(self):
        # The NIPS mode-2 problem at the repository's scale, forced dense.
        left, right, pairs = get_case("NIPS_2").load()
        with pytest.raises(WorkspaceLimitError, match="task guard"):
            contract(left, right, pairs, accumulator="dense")


class TestPlanCommand:
    def test_small_problem_is_ok(self, capsys):
        assert main(["plan", "--L", "1000", "--R", "1000", "--C", "100",
                     "--nnz-l", "5000", "--nnz-r", "5000"]) == 0
        out = capsys.readouterr().out
        assert "guard verdict: ok (grid 2x2, <= 4 tasks)" in out
