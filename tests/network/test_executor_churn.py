"""NetworkExecutor plan cache under signature churn.

Streaming mutates operand nnz between calls, so the exact signature key
churns constantly.  These tests pin the cache's behavior under that
churn: LRU eviction stays bounded and structure-indexed, drift-tolerant
reuse absorbs small nnz movement, large movement re-prices, and
invalidation severs reuse completely.
"""

import numpy as np

from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP
from repro.network import NetworkExecutor

SUB = "ij,jk->ik"


def pair(nnz_a, nnz_b=60, seed=0):
    return (
        random_coo((24, 30), nnz=nnz_a, seed=seed),
        random_coo((30, 16), nnz=nnz_b, seed=seed + 1),
    )


def distinct_networks(n):
    """n structurally distinct problems (shape churn, not just nnz)."""
    out = []
    for i in range(n):
        rows = 16 + 4 * i
        out.append((
            random_coo((rows, 20), nnz=80, seed=100 + i),
            random_coo((20, 12), nnz=50, seed=200 + i),
        ))
    return out


class TestEviction:
    def test_lru_bound_holds_under_churn(self):
        ex = NetworkExecutor(machine=DESKTOP, plan_cache_size=4)
        for a, b in distinct_networks(10):
            ex.plan(SUB, [a, b])
        assert len(ex.plan_store) == 4
        assert ex.plan_store.stats()["structures"] == 4

    def test_eviction_is_least_recently_used(self):
        ex = NetworkExecutor(machine=DESKTOP, plan_cache_size=2)
        nets = distinct_networks(3)
        ex.plan(SUB, list(nets[0]))
        ex.plan(SUB, list(nets[1]))
        ex.plan(SUB, list(nets[0]))  # refresh 0's recency
        ex.plan(SUB, list(nets[2]))  # evicts 1
        _, src0 = ex.plan(SUB, list(nets[0]))
        _, src1 = ex.plan(SUB, list(nets[1]))
        assert src0 == "cache"
        assert src1 == "optimizer"

    def test_evicted_structure_cannot_drift_hit(self):
        ex = NetworkExecutor(machine=DESKTOP, plan_cache_size=1)
        a, b = pair(100)
        ex.plan(SUB, [a, b])
        other = distinct_networks(1)[0]
        ex.plan(SUB, list(other))  # evicts the first structure
        drifted = pair(104)
        _, source = ex.plan(SUB, list(drifted))
        assert source == "optimizer"
        assert ex.plan_drift_hits == 0


class TestDrift:
    def test_small_nnz_drift_reuses_plan(self):
        ex = NetworkExecutor(machine=DESKTOP)
        ex.plan(SUB, list(pair(100)))
        plan, source = ex.plan(SUB, list(pair(108)))  # 8% drift
        assert source == "cache"
        assert ex.plan_drift_hits == 1
        # Rekeyed under the live signature: next call is an exact hit.
        _, again = ex.plan(SUB, list(pair(108)))
        assert again == "cache"
        assert ex.plan_drift_hits == 1

    def test_large_nnz_drift_reprices(self):
        ex = NetworkExecutor(machine=DESKTOP)
        ex.plan(SUB, list(pair(100)))
        _, source = ex.plan(SUB, list(pair(400)))  # 300% drift
        assert source == "optimizer"
        assert ex.plan_drift_repriced == 1
        assert ex.plan_drift_hits == 0

    def test_drift_reuse_still_executes_correctly(self):
        ex = NetworkExecutor(machine=DESKTOP)
        ex.contract(SUB, *pair(100))
        a, b = pair(110, seed=5)
        out = ex.contract(SUB, a, b)
        expected = a.to_dense() @ b.to_dense()
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-9)


class TestInvalidation:
    def test_invalidate_all(self):
        ex = NetworkExecutor(machine=DESKTOP)
        for a, b in distinct_networks(3):
            ex.plan(SUB, [a, b])
        assert ex.invalidate_plans() == 3
        assert len(ex.plan_store) == 0
        assert ex.plan_store.stats()["structures"] == 0
        assert ex.metrics()["network_plans_invalidated"] == 3

    def test_invalidate_by_predicate(self):
        ex = NetworkExecutor(machine=DESKTOP)
        nets = distinct_networks(2)
        p0, _ = ex.plan(SUB, list(nets[0]))
        ex.plan(SUB, list(nets[1]))
        dropped = ex.invalidate_plans(
            lambda key: key == p0.signature_key
        )
        assert dropped == 1
        _, source = ex.plan(SUB, list(nets[1]))
        assert source == "cache"

    def test_invalidated_plan_not_drift_reusable(self):
        ex = NetworkExecutor(machine=DESKTOP)
        ex.plan(SUB, list(pair(100)))
        assert ex.invalidate_plans() == 1
        _, source = ex.plan(SUB, list(pair(104)))
        assert source == "optimizer"
        assert ex.plan_drift_hits == 0

    def test_metrics_expose_churn_counters(self):
        ex = NetworkExecutor(machine=DESKTOP)
        ex.plan(SUB, list(pair(100)))
        ex.plan(SUB, list(pair(108)))
        ex.plan(SUB, list(pair(500)))
        ex.invalidate_plans()
        m = ex.metrics()
        assert m["network_plan_drift_hits"] == 1
        assert m["network_plan_drift_repriced"] == 1
        # Three entries: the original, the drift-rekeyed copy, and the
        # repriced plan — all dropped by the blanket invalidation.
        assert m["network_plans_invalidated"] == 3
