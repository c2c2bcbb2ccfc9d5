"""Runtime executor tests: correctness under reuse, counters, batching."""

import numpy as np
import pytest

from repro import COOTensor, contract
from repro.analysis.counters import Counters
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.core.tiled_co import build_tiled_tables_pair, tiled_co_contract
from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP, MINIATURE
from repro.runtime import BatchExecutor, BatchItem, ContractionRuntime


@pytest.fixture
def tensors():
    a = random_coo((30, 20, 10), nnz=300, seed=5)
    b = random_coo((10, 25), nnz=120, seed=6)
    return a, b, [(2, 0)]


class TestRuntimeContract:
    def test_matches_plain_contract(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        expected = contract(a, b, pairs)
        for _ in range(3):  # cold, then twice warm
            assert rt.contract(a, b, pairs).allclose(expected)

    def test_counters_record_hits_and_builds(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        rt.contract(a, b, pairs)
        assert rt.counters.plan_cache_misses == 1
        assert rt.counters.table_builds == 2
        rt.contract(a, b, pairs)
        assert rt.counters.plan_cache_hits == 1
        assert rt.counters.table_reuse_hits == 2

    def test_per_call_counters_merge(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        mine = Counters()
        rt.contract(a, b, pairs, counters=mine)
        assert mine.plan_cache_misses == 1
        assert mine.accum_updates > 0

    def test_reused_tables_charge_queries_to_the_calling_contraction(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        cold = Counters()
        rt.contract(a, b, pairs, counters=cold)
        cold_after = cold.snapshot()
        warm = Counters()
        _, record = rt.contract(a, b, pairs, counters=warm, return_record=True)
        assert record.tables_reused == (True, True)
        assert warm.hash_queries == cold.hash_queries > 0
        # The warm call's lookups land on it, not on the call that
        # built (and still owns) the cached tables.
        assert cold.snapshot() == cold_after

    def test_warm_call_skips_planning_and_construction(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        rt.contract(a, b, pairs)
        _, stats, record = rt.contract(
            a, b, pairs, return_stats=True, return_record=True
        )
        # Reused tables: the construction phase is (measured) epsilon,
        # and linearization was skipped outright.
        assert stats.phase_seconds["build_tables"] < 1e-3
        assert stats.phase_seconds["linearize"] == 0.0
        assert record.plan_source == "cache"
        assert record.tables_reused == (True, True)
        assert record.seconds_saved > 0

    def test_return_stats_shape(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        out, stats = rt.contract(a, b, pairs, return_stats=True)
        assert stats.output_nnz == out.nnz
        assert stats.plan is not None

    def test_distinct_problems_get_distinct_plans(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        rt.contract(a, b, pairs)
        c = random_coo((30, 20, 10), nnz=900, seed=9)  # density changed
        rt.contract(c, b, pairs)
        assert rt.counters.plan_cache_misses == 2
        assert rt.counters.plan_cache_hits == 0

    def test_operand_eviction_keeps_results_correct(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime(operand_cache_size=1)
        expected = contract(a, b, pairs)
        for _ in range(2):
            assert rt.contract(a, b, pairs).allclose(expected)

    def test_clear_operand_cache(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime()
        rt.contract(a, b, pairs)
        rt.clear_operand_cache()
        rt.contract(a, b, pairs)
        assert rt.counters.table_builds == 4  # rebuilt after the clear
        assert rt.counters.plan_cache_hits == 1  # but the plan survived

    def test_value_change_same_plan_different_result(self, tensors):
        """Same structure, new values: plan cache hits, output tracks
        the new values (the cache must never memoize results)."""
        a, b, pairs = tensors
        rt = ContractionRuntime()
        rt.contract(a, b, pairs)
        a2 = COOTensor(a.coords, a.values * 2.0, a.shape)
        out = rt.contract(a2, b, pairs)
        assert rt.counters.plan_cache_hits == 1
        assert out.allclose(contract(a, b, pairs).scaled(2.0))

    def test_machine_respected(self, tensors):
        a, b, pairs = tensors
        rt = ContractionRuntime(machine=MINIATURE)
        _, stats = rt.contract(a, b, pairs, return_stats=True)
        assert stats.plan.machine_name == MINIATURE.name


class TestPlanInjection:
    """The core ``contract(plan=...)`` hook the runtime layers on."""

    def test_precomputed_plan_used(self, tensors):
        a, b, pairs = tensors
        spec = ContractionSpec(a.shape, b.shape, pairs)
        lop = spec.linearize_left(a).sum_duplicates()
        rop = spec.linearize_right(b).sum_duplicates()
        plan = choose_plan(spec, lop.nnz, rop.nnz, DESKTOP)
        out, stats = contract(a, b, pairs, plan=plan, return_stats=True)
        assert stats.plan is plan
        assert out.allclose(contract(a, b, pairs))

    def test_plan_conflicts_with_overrides(self, tensors):
        a, b, pairs = tensors
        spec = ContractionSpec(a.shape, b.shape, pairs)
        plan = choose_plan(spec, a.nnz, b.nnz, DESKTOP)
        with pytest.raises(ValueError, match="mutually exclusive"):
            contract(a, b, pairs, plan=plan, tile_size=8)

    def test_mismatched_plan_rejected(self, tensors):
        a, b, pairs = tensors
        other_spec = ContractionSpec((4, 4), (4, 4), [(1, 0)])
        plan = choose_plan(other_spec, 4, 4, DESKTOP)
        with pytest.raises(ValueError, match="plan was made for"):
            contract(a, b, pairs, plan=plan)


class TestPrebuiltTables:
    """The kernel-level ``tables=`` injection."""

    def test_prebuilt_tables_give_same_answer(self, tensors):
        a, b, pairs = tensors
        spec = ContractionSpec(a.shape, b.shape, pairs)
        lop = spec.linearize_left(a).sum_duplicates()
        rop = spec.linearize_right(b).sum_duplicates()
        plan = choose_plan(spec, lop.nnz, rop.nnz, DESKTOP)
        hl, hr = build_tiled_tables_pair(lop, rop, plan.tile_l, plan.tile_r)
        li1, ri1, v1, _ = tiled_co_contract(lop, rop, plan)
        li2, ri2, v2, stats = tiled_co_contract(
            lop, rop, plan, tables=(hl, hr))
        dense1 = np.zeros((spec.L, spec.R))
        dense2 = np.zeros((spec.L, spec.R))
        np.add.at(dense1, (li1, ri1), v1)
        np.add.at(dense2, (li2, ri2), v2)
        np.testing.assert_allclose(dense1, dense2)

    def test_wrong_tile_rejected(self, tensors):
        a, b, pairs = tensors
        spec = ContractionSpec(a.shape, b.shape, pairs)
        lop = spec.linearize_left(a).sum_duplicates()
        rop = spec.linearize_right(b).sum_duplicates()
        plan = choose_plan(spec, lop.nnz, rop.nnz, DESKTOP)
        bad_tile = plan.tile_l * 2
        hl, hr = build_tiled_tables_pair(lop, rop, bad_tile, bad_tile)
        with pytest.raises(ValueError, match="prebuilt tables"):
            tiled_co_contract(lop, rop, plan, tables=(hl, hr))


class TestBatchExecutor:
    def test_shared_operand_reuses_tables(self):
        """The DLPNO shape: one operand feeds consecutive steps."""
        shared = random_coo((18, 14, 12), nnz=250, seed=1)
        other1 = random_coo((12, 16), nnz=100, seed=2)
        other2 = random_coo((12, 9), nnz=80, seed=3)
        ex = BatchExecutor()
        report = ex.run([
            BatchItem(shared, other1, ((2, 0),), name="first"),
            BatchItem(shared, other2, ((2, 0),), name="second"),
        ])
        # Step two reuses `shared`'s left tables (same role, same tile
        # unless the plans diverge on tile size).
        assert report.metrics["table_reuse_hits"] >= 1
        assert report.records[1].tables_reused[0] is True
        for out, (l, r, p) in zip(
            report.outputs,
            [(shared, other1, [(2, 0)]), (shared, other2, [(2, 0)])],
        ):
            assert out.allclose(contract(l, r, p))

    def test_tuple_items_coerced(self):
        a = random_coo((10, 8), nnz=40, seed=4)
        b = random_coo((8, 6), nnz=30, seed=5)
        report = BatchExecutor().run([(a, b, [(1, 0)])])
        assert report.records[0].name == "step0"
        assert report.outputs[0].allclose(contract(a, b, [(1, 0)]))

    def test_summary_mentions_cache_metrics(self):
        a = random_coo((10, 8), nnz=40, seed=4)
        b = random_coo((8, 6), nnz=30, seed=5)
        report = BatchExecutor().run([(a, b, [(1, 0)]), (a, b, [(1, 0)])])
        text = report.summary()
        assert "plan cache: 1 hits / 1 misses" in text
        assert "hit rate 50%" in text
        assert "estimated speedup" in text

    def test_metrics_speedup_accumulates(self):
        a = random_coo((24, 18, 9), nnz=400, seed=8)
        b = random_coo((9, 21), nnz=150, seed=9)
        rt = ContractionRuntime()
        ex = BatchExecutor(rt)
        ex.run([(a, b, [(2, 0)])] * 4)
        m = rt.metrics()
        assert m["calls"] == 4
        assert m["plan_hit_rate"] == 0.75
        assert m["table_reuse_rate"] == 0.75
        assert m["estimated_speedup"] > 1.0
