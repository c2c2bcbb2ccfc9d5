"""Integration tests: optimizer passes through the network executor."""

import numpy as np
import pytest

from repro.data.random_tensors import random_coo
from repro.errors import PlanError
from repro.machine.specs import DESKTOP
from repro.network import NetworkExecutor, StepResultCache
from repro.network.ir import TensorNetwork
from repro.network.plan import NetworkPlan, NetworkSignature
from repro.tensors.coo import COOTensor


def twin_operands(seed=3, n=20):
    a = random_coo((n, n), nnz=4 * n, seed=seed)
    b = random_coo((n, n), nnz=4 * n, seed=seed + 1)
    return "ij,jk,lm,mn->il", [a, b, a, b]


def chain_operands(seed=5, n=20):
    ops = [random_coo((n, n), nnz=4 * n, seed=seed + k) for k in range(3)]
    return "ab,bc,cd->ad", ops


class TestAnnotations:
    def test_cse_annotated_on_shared_branches(self):
        subs, ops = twin_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        plan, _ = ex.plan(subs, ops, optimizer="dp")
        assert plan.passes == ("cse", "dead", "hoist")
        assert any(s.cse_of >= 0 for s in plan.steps)

    def test_dead_annotated_on_empty_operand(self):
        subs, ops = chain_operands()
        ops[1] = COOTensor.empty(ops[1].shape)
        ex = NetworkExecutor(machine=DESKTOP)
        plan, _ = ex.plan(subs, ops)
        assert any(s.dead for s in plan.steps)
        assert plan.zero_operands == (1,)

    def test_hoist_annotated_on_input_sides(self):
        subs, ops = chain_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        plan, _ = ex.plan(subs, ops, optimizer="dp")
        assert any(
            s.hoist_l or s.hoist_r
            for s in plan.steps if s.kind == "contract"
        )

    def test_plan_network_passes_option(self):
        from repro.network import plan_network

        plan = plan_network(
            "ab,bc,cd->ad", [(12, 12)] * 3, machine=DESKTOP,
            nnz=[40, 0, 40], passes=True,
        )
        assert plan.passes == ("cse", "dead", "hoist")
        assert plan.zero_operands == (1,)
        assert all(s.dead for s in plan.steps)

    def test_network_empty_operands_helper(self):
        network = TensorNetwork.parse(
            "ab,bc,cd->ad", [(12, 12)] * 3, nnz=[40, 0, 40]
        )
        assert network.empty_operands() == (1,)

    def test_explain_shows_annotations(self):
        subs, ops = twin_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        plan, _ = ex.plan(subs, ops, optimizer="dp")
        text = plan.explain()
        assert "passes applied: cse, dead, hoist" in text
        assert "cse->" in text


class TestBitIdentity:
    @pytest.mark.parametrize("optimizer", ["left", "greedy", "dp", "sparsity"])
    def test_optimized_matches_unoptimized(self, optimizer):
        subs, ops = twin_operands()
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        opt = NetworkExecutor(machine=DESKTOP)
        ref = base.contract(subs, *ops, optimizer=optimizer)
        out = opt.contract(subs, *ops, optimizer=optimizer)
        assert np.array_equal(ref.to_dense(), out.to_dense())

    def test_digest_mismatch_falls_back(self):
        # branch operands share shape/nnz (so the CSE pass merges the
        # steps) but differ in content: the runtime digest guard must
        # reject the reuse and recompute
        a = random_coo((20, 20), nnz=80, seed=1)
        b = random_coo((20, 20), nnz=80, seed=2)
        c = random_coo((20, 20), nnz=80, seed=3)
        d = random_coo((20, 20), nnz=80, seed=4)
        subs = "ij,jk,lm,mn->il"
        opt = NetworkExecutor(machine=DESKTOP)
        plan, _ = opt.plan(subs, [a, b, c, d], optimizer="dp")
        assert any(s.cse_of >= 0 for s in plan.steps)
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        ref = base.contract(subs, a, b, c, d, optimizer="dp")
        out = opt.contract(subs, a, b, c, d, optimizer="dp")
        assert np.array_equal(ref.to_dense(), out.to_dense())
        assert opt.metrics()["cse_misses"] > 0
        assert opt.metrics()["cse_hits"] == 0

    def test_dead_skip_emits_empty_result(self):
        subs, ops = chain_operands()
        ops[1] = COOTensor.empty(ops[1].shape)
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        opt = NetworkExecutor(machine=DESKTOP)
        ref = base.contract(subs, *ops)
        out = opt.contract(subs, *ops)
        assert out.nnz == 0
        assert np.array_equal(ref.to_dense(), out.to_dense())
        assert opt.metrics()["dead_skips"] > 0

    def test_dead_premise_guard_disables_shortcut(self):
        # a plan annotated dead from declared-zero metadata must not
        # skip work when replayed over operands that are NOT empty
        network_subs = "ij,jk,kl->il"
        shapes = [(10, 10)] * 3
        ex = NetworkExecutor(machine=DESKTOP)
        plan, _ = ex.plan(network_subs, shapes, nnz=[25, 0, 25])
        assert any(s.dead for s in plan.steps)
        ops = [random_coo((10, 10), nnz=25, seed=k) for k in range(3)]
        out, report = ex.execute(plan, ops)
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        ref = base.contract(network_subs, *ops)
        assert np.array_equal(ref.to_dense(), out.to_dense())
        assert ex.metrics()["dead_skips"] == 0


class TestPlanCacheKeying:
    def test_pipeline_key_qualifies_signature(self):
        subs, ops = chain_operands()
        network = TensorNetwork.parse(subs, ops)
        plain = NetworkSignature.for_network(network, DESKTOP, "dp")
        piped = NetworkSignature.for_network(
            network, DESKTOP, "dp", pipeline="cse,dead,hoist"
        )
        assert plain.key != piped.key
        assert "|P" not in plain.key  # historical keys stay stable
        assert piped.key.endswith("|Pcse,dead,hoist")

    def test_executors_cache_under_distinct_keys(self):
        subs, ops = chain_operands()
        opt = NetworkExecutor(machine=DESKTOP)
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        p_opt, _ = opt.plan(subs, ops, optimizer="dp")
        p_base, _ = base.plan(subs, ops, optimizer="dp")
        assert p_opt.signature_key != p_base.signature_key
        # a pipeline executor can never replay an unoptimized plan
        opt2 = NetworkExecutor(machine=DESKTOP)
        opt2.seed_plan(p_base)
        assert opt2.cached_plan(subs, ops, optimizer="dp") is None

    def test_pipeline_key_property(self):
        assert NetworkExecutor(machine=DESKTOP).pipeline_key == (
            "cse,dead,hoist"
        )
        assert NetworkExecutor(machine=DESKTOP, passes=False).pipeline_key == ""


class TestJsonRoundTrip:
    def test_annotations_survive_serialization(self):
        subs, ops = twin_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        plan, _ = ex.plan(subs, ops, optimizer="dp")
        clone = NetworkPlan.from_json(plan.to_json())
        assert clone.passes == plan.passes
        assert clone.zero_operands == plan.zero_operands
        for s, c in zip(plan.steps, clone.steps):
            assert (s.cse_of, s.dead, s.hoist_l, s.hoist_r) == (
                c.cse_of, c.dead, c.hoist_l, c.hoist_r
            )


class TestPrepare:
    def test_prepare_pins_and_unpins(self):
        subs, ops = chain_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        ref = base.contract(subs, *ops)
        with ex.prepare(subs, *ops) as prepared:
            assert ex.runtime.metrics()["operands_pinned"] > 0
            out1 = prepared.execute()
            out2 = prepared.execute()
            assert np.array_equal(ref.to_dense(), out1.to_dense())
            assert np.array_equal(out1.to_dense(), out2.to_dense())
        assert ex.runtime.metrics()["operands_pinned"] == 0

    def test_execute_after_close_raises(self):
        subs, ops = chain_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        prepared = ex.prepare(subs, *ops)
        prepared.close()
        prepared.close()  # idempotent
        with pytest.raises(PlanError):
            prepared.execute()


class TestStepResultCache:
    def test_shared_cache_hits_across_calls(self):
        subs, ops = chain_operands()
        ex = NetworkExecutor(machine=DESKTOP)
        cache = StepResultCache()
        first = ex.contract(subs, *ops, cse_cache=cache)
        second = ex.contract(subs, *ops, cse_cache=cache)
        assert np.array_equal(first.to_dense(), second.to_dense())
        assert cache.stats()["hits"] > 0
        assert ex.metrics()["batch_cse_hits"] > 0

    def test_cache_bounded(self):
        cache = StepResultCache(maxsize=1)
        subs, ops = chain_operands()
        other_subs, other_ops = chain_operands(seed=50)
        ex = NetworkExecutor(machine=DESKTOP)
        ex.contract(subs, *ops, cse_cache=cache)
        ex.contract(other_subs, *other_ops, cse_cache=cache)
        assert cache.stats()["entries"] <= 1

    def test_metrics_expose_pass_counters(self):
        ex = NetworkExecutor(machine=DESKTOP)
        m = ex.metrics()
        for key in ("cse_hits", "cse_misses", "cse_hit_rate",
                    "batch_cse_hits", "dead_skips"):
            assert key in m
