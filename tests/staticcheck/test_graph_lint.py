"""The kernel's dispatch list is write-disjoint (the FSTC201/202 rule).

Each tile pair accumulates into its own output tile, so the tasks
commute and need no reduction between them only while no pair is
dispatched twice.  These tests hold the recorded dispatch list
(``stats.task_pairs``) and the output it produces to that.
"""

from itertools import product

import numpy as np
import pytest

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec, LinearizedOperand
from repro.core.tiled_co import build_tiled_tables, tiled_co_contract
from repro.data.random_tensors import random_coo, random_operand_pair
from repro.machine.specs import DESKTOP

from tests.conftest import reference_product, triples_to_dense


def plan_for(left, right, **kw):
    spec = ContractionSpec((left.ext_extent, left.con_extent),
                           (left.con_extent, right.ext_extent), [(1, 0)])
    return choose_plan(spec, left.nnz, right.nnz, DESKTOP, **kw)


@pytest.fixture
def grid():
    left, right = random_operand_pair(
        96, 40, 80, density_l=0.06, density_r=0.08, seed=12
    )
    return left, right, plan_for(left, right, tile_size=16)


def rows_below(op: LinearizedOperand, bound: int) -> LinearizedOperand:
    """The nonzeros of ``op`` whose external index is below ``bound``."""
    keep = op.ext < bound
    return LinearizedOperand(
        op.ext[keep], op.con[keep], op.values[keep], op.ext_extent, op.con_extent
    )


class TestAnalyzeTaskGraph:
    def test_disjoint_pairs_are_clean(self, grid):
        # Every pair of nonempty tiles is dispatched, and exactly once.
        left, right, plan = grid
        _, _, _, stats = tiled_co_contract(left, right, plan, n_workers=2)
        hl = build_tiled_tables(left, plan.tile_l)
        hr = build_tiled_tables(right, plan.tile_r)
        assert sorted(stats.task_pairs) == sorted(
            product(hl.nonempty_tiles(), hr.nonempty_tiles())
        )

    def test_repeated_pair_is_a_conflict(self, grid):
        # No output cell is written by two tasks: the coordinates are
        # unique and each lies in the tile of one dispatched pair.
        left, right, plan = grid
        l_idx, r_idx, _, stats = tiled_co_contract(left, right, plan, n_workers=4)
        cells = set(zip(l_idx.tolist(), r_idx.tolist()))
        assert len(cells) == len(l_idx) > 0
        tiles = {(lo // plan.tile_l, r // plan.tile_r) for lo, r in cells}
        assert tiles <= set(stats.task_pairs)

    def test_exact_reduction_silences_fstc202(self, grid):
        # A tile's output comes out of its own tasks alone: the rows of
        # the first left tile are bitwise the same with or without the
        # other tiles in the operand.
        left, right, plan = grid
        full = tiled_co_contract(left, right, plan, n_workers=4)[:3]
        part = tiled_co_contract(
            rows_below(left, plan.tile_l), right, plan, n_workers=4
        )[:3]
        keep = full[0] < plan.tile_l
        order_f = np.lexsort((full[1][keep], full[0][keep]))
        order_p = np.lexsort((part[1], part[0]))
        for got, want in zip(part, full):
            assert got[order_p].tobytes() == want[keep][order_f].tobytes()

    def test_non_reducing_overwrite_is_a_conflict(self, grid):
        # Many small tiles and four workers: no contribution is lost to
        # a task overwriting another's output.
        left, right, _ = grid
        plan = plan_for(left, right, tile_size=8)
        l_idx, r_idx, vals, stats = tiled_co_contract(
            left, right, plan, n_workers=4
        )
        assert stats.num_tasks > 50
        np.testing.assert_allclose(
            triples_to_dense(l_idx, r_idx, vals, left.ext_extent, right.ext_extent),
            reference_product(left, right),
        )

    def test_fewer_tasks_than_workers(self, grid):
        left, right, _ = grid
        plan = plan_for(left, right, tile_size=128)
        l_idx, r_idx, vals, stats = tiled_co_contract(
            left, right, plan, n_workers=8
        )
        assert stats.task_pairs == [(0, 0)]
        np.testing.assert_allclose(
            triples_to_dense(l_idx, r_idx, vals, left.ext_extent, right.ext_extent),
            reference_product(left, right),
        )

    def test_stats_adapter_requires_task_pairs(self, grid):
        # An operand with no nonzeros has no nonempty tile and dispatches
        # nothing.
        left, right, plan = grid
        l_idx, _, _, stats = tiled_co_contract(
            rows_below(left, 0), right, plan, n_workers=2
        )
        assert stats.task_pairs == [] and stats.num_tasks == 0
        assert len(l_idx) == 0


class TestKernelIntegration:
    def _operands(self):
        a = random_coo((40, 40), nnz=160, seed=21)
        b = random_coo((40, 40), nnz=160, seed=22)
        spec = ContractionSpec(a.shape, b.shape, [(1, 0)])
        lo = spec.linearize_left(a).sum_duplicates()
        ro = spec.linearize_right(b).sum_duplicates()
        return spec, lo, ro

    def test_recorded_dispatch_list_is_write_disjoint(self):
        spec, lo, ro = self._operands()
        plan = choose_plan(spec, lo.nnz, ro.nnz, DESKTOP, tile_size=8)
        for workers in (1, 2, 4):
            _, _, _, stats = tiled_co_contract(lo, ro, plan, n_workers=workers)
            assert len(stats.task_pairs) > 1
            assert len(set(stats.task_pairs)) == len(stats.task_pairs)
