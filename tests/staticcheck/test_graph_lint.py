"""Unit tests for task-graph hazard analysis (FSTC2xx) and the
kernel's recorded dispatch list."""

import pytest

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.core.tiled_co import tiled_co_contract
from repro.data.random_tensors import random_coo
from repro.errors import StaticCheckError
from repro.machine.specs import DESKTOP
from repro.staticcheck import (
    TileTask,
    analyze_task_graph,
    hazards_for_stats,
    write_sets_for_pairs,
)


def codes(diags):
    return [d.code for d in diags]


class TestAnalyzeTaskGraph:
    def test_disjoint_pairs_are_clean(self):
        tasks = write_sets_for_pairs([(0, 0), (0, 1), (1, 0), (1, 1)])
        assert analyze_task_graph(tasks) == []

    def test_repeated_pair_is_a_conflict(self):
        tasks = write_sets_for_pairs([(0, 0), (0, 1), (0, 0)])
        found = codes(analyze_task_graph(tasks))
        assert "FSTC201" in found
        assert "FSTC202" in found  # reducing writers: order-dependent fp

    def test_exact_reduction_silences_fstc202(self):
        tasks = write_sets_for_pairs([(0, 0), (0, 0)])
        found = codes(analyze_task_graph(tasks, exact_reduction=True))
        assert "FSTC201" in found
        assert "FSTC202" not in found

    def test_non_reducing_overwrite_is_a_conflict(self):
        tasks = [
            TileTask(0, frozenset([(0, 0)]), reduces=False),
            TileTask(1, frozenset([(0, 0)]), reduces=False),
        ]
        found = analyze_task_graph(tasks)
        assert codes(found) == ["FSTC201"]

    def test_fewer_tasks_than_workers(self):
        tasks = write_sets_for_pairs([(0, 0), (0, 1)])
        found = analyze_task_graph(tasks, n_workers=8)
        assert codes(found) == ["FSTC203"]
        assert found[0].severity == "info"

    def test_stats_adapter_requires_task_pairs(self):
        with pytest.raises(StaticCheckError):
            hazards_for_stats(object())


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
        plan = choose_plan(spec, lo.nnz, ro.nnz, DESKTOP)
        _, _, _, stats = tiled_co_contract(lo, ro, plan)
        # The kernel's recorded dispatch list is hazard-free by
        # construction: every tile pair writes its own output tile.
        assert stats.task_pairs
        assert analyze_task_graph(
            write_sets_for_pairs(stats.task_pairs)
        ) == []
