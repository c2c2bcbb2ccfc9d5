"""Integration tests for ContractionService: correctness, overload,
degradation, affinity batching."""

import numpy as np
import pytest

from repro import contract
from repro.data.random_tensors import random_coo
from repro.errors import ConfigError, SchedulerError
from repro.machine.specs import DESKTOP
from repro.network import NetworkExecutor
from repro.runtime import ContractionRuntime
from repro.serve import (
    TERMINAL_STATUSES,
    ContractionService,
    Request,
    ServiceConfig,
    synthetic_requests,
)


@pytest.fixture
def operands():
    a = random_coo((30, 24), nnz=120, seed=11)
    b = random_coo((24, 20), nnz=100, seed=12)
    return a, b


def small_service(**overrides) -> ContractionService:
    defaults = dict(queue_capacity=16, n_workers=1)
    defaults.update(overrides)
    return ContractionService(
        machine=DESKTOP, config=ServiceConfig(**defaults)
    )


class TestCorrectness:
    def test_served_result_is_bit_identical_to_direct(self, operands):
        a, b = operands
        expected = contract(a, b, [(1, 0)])
        with small_service() as service:
            response = service.call(
                Request.pairwise(a, b, [(1, 0)]), timeout=30.0
            )
        assert response.status == "ok"
        assert response.degrade_rung is None
        np.testing.assert_array_equal(response.result.coords, expected.coords)
        np.testing.assert_array_equal(response.result.values, expected.values)

    def test_network_request(self, operands):
        a, b = operands
        c = random_coo((20, 10), nnz=60, seed=13)
        expected = NetworkExecutor(machine=DESKTOP).contract(
            "ij,jk,kl->il", a, b, c
        )
        with small_service() as service:
            response = service.call(
                Request.network("ij,jk,kl->il", a, b, c), timeout=30.0
            )
        assert response.status == "ok"
        np.testing.assert_array_equal(response.result.coords, expected.coords)
        np.testing.assert_array_equal(response.result.values, expected.values)

    def test_failed_request_reports_error(self, operands):
        a, b = operands
        with small_service() as service:
            # Contracting mismatched extents is a ShapeError downstream.
            response = service.call(
                Request.pairwise(a, b, [(0, 0)]), timeout=30.0
            )
        assert response.status == "failed"
        assert response.detail
        assert response.result is None


class TestDegradationLadder:
    def test_cheap_path_matches_sparse_accumulator(self, operands):
        """Rung 2 skips Algorithm 7's probe: the result must be
        bit-identical to a direct sparse-accumulator contraction."""
        a, b = operands
        expected = contract(a, b, [(1, 0)], accumulator="sparse")
        with small_service(force_degraded=True) as service:
            response = service.call(
                Request.pairwise(a, b, [(1, 0)]), timeout=30.0
            )
        assert response.status == "degraded"
        assert response.degrade_rung == "cheap-path"
        assert response.accumulator == "sparse"
        np.testing.assert_array_equal(response.result.coords, expected.coords)
        np.testing.assert_array_equal(response.result.values, expected.values)

    def test_cached_plan_rung_replays_full_quality(self, operands):
        """Rung 1: a warm plan under the request's signature is replayed
        — numerically identical to the undegraded path."""
        a, b = operands
        runtime = ContractionRuntime(machine=DESKTOP, calibrate=False)
        expected, _ = runtime.contract(a, b, [(1, 0)], return_record=True)
        service = ContractionService(
            machine=DESKTOP,
            config=ServiceConfig(queue_capacity=16, n_workers=1,
                                 force_degraded=True),
            runtime=runtime,
        )
        with service:
            response = service.call(
                Request.pairwise(a, b, [(1, 0)]), timeout=30.0
            )
        assert response.status == "degraded"
        assert response.degrade_rung == "cached-plan"
        np.testing.assert_array_equal(response.result.coords, expected.coords)
        np.testing.assert_array_equal(response.result.values, expected.values)

    def test_degraded_network_takes_left_path(self, operands):
        a, b = operands
        c = random_coo((20, 10), nnz=60, seed=13)
        expected = NetworkExecutor(machine=DESKTOP).contract(
            "ij,jk,kl->il", a, b, c, optimizer="left"
        )
        with small_service(force_degraded=True) as service:
            response = service.call(
                Request.network("ij,jk,kl->il", a, b, c), timeout=30.0
            )
        assert response.status == "degraded"
        assert response.degrade_rung == "cheap-path"
        np.testing.assert_array_equal(response.result.coords, expected.coords)
        np.testing.assert_array_equal(response.result.values, expected.values)

    def test_expired_deadline_times_out_without_executing(self, operands):
        a, b = operands
        with small_service() as service:
            response = service.call(
                Request.pairwise(a, b, [(1, 0)], deadline_s=1e-6),
                timeout=30.0,
            )
        assert response.status == "timeout"
        assert "queued" in response.detail


class TestOverload:
    @pytest.mark.parametrize("policy", ["reject", "shed_oldest"])
    def test_bounded_queue_sheds_instead_of_growing(self, policy):
        capacity = 4
        requests = synthetic_requests(60, n_signatures=2, seed=3)
        with small_service(queue_capacity=capacity, policy=policy,
                           max_batch=4) as service:
            tickets = [service.submit(r) for r in requests]
            responses = [t.result(30.0) for t in tickets]
            stats = service.queue.stats()
        assert len(responses) == len(requests)
        assert all(r.status in TERMINAL_STATUSES for r in responses)
        assert stats["high_water"] <= capacity
        # Submission is far faster than execution, so the bound binds.
        assert sum(r.status == "shed" for r in responses) > 0
        assert all(r.status != "failed" for r in responses)

    def test_block_policy_backpressures_without_loss(self):
        requests = synthetic_requests(20, n_signatures=2, seed=4)
        with small_service(queue_capacity=2, policy="block") as service:
            responses = [
                service.submit(r).result(30.0) for r in requests
            ]
            stats = service.queue.stats()
        assert all(r.status == "ok" for r in responses)
        assert stats["high_water"] <= 2

    def test_shed_oldest_prefers_the_low_class(self, operands):
        a, b = operands
        # Flood with low-priority work, then a high-priority burst.
        # Eviction picks the lowest class *present*, so once the queue
        # is all-high, highs evict each other — the exact victim choice
        # is proven deterministically at the queue layer; here we check
        # the end-to-end bias: lows shed at least as hard as highs.
        low = [
            Request.pairwise(a, b, [(1, 0)], name=f"low{k}", priority=0)
            for k in range(20)
        ]
        high = [
            Request.pairwise(a, b, [(1, 0)], name=f"high{k}", priority=5)
            for k in range(8)
        ]
        with small_service(queue_capacity=4, policy="shed_oldest",
                           max_batch=4) as service:
            tickets = [service.submit(r) for r in low + high]
            responses = [t.result(30.0) for t in tickets]
        shed = {r.name for r in responses if r.status == "shed"}
        low_rate = sum(1 for n in shed if n.startswith("low")) / len(low)
        high_rate = sum(1 for n in shed if n.startswith("high")) / len(high)
        assert low_rate >= high_rate
        assert any(n.startswith("low") for n in shed)

    def test_stop_without_drain_sheds_queued_work(self, operands):
        a, b = operands
        service = small_service(queue_capacity=16)
        service.start()
        tickets = [
            service.submit(Request.pairwise(a, b, [(1, 0)]))
            for _ in range(8)
        ]
        service.stop(drain=False)
        responses = [t.result(30.0) for t in tickets]
        assert all(r.status in TERMINAL_STATUSES for r in responses)


class TestAffinityBatching:
    def test_affinity_beats_fifo_hit_rate(self):
        """The acceptance experiment: on a mixed-signature stream with a
        one-entry plan cache, FIFO order misses every plan lookup while
        the service's affinity reordering still hits."""
        requests = synthetic_requests(24, n_signatures=2, seed=9)

        # FIFO baseline: the interleaved stream through a one-entry
        # cache alternates signatures, evicting before every reuse.
        fifo = ContractionRuntime(machine=DESKTOP, cache_size=1,
                                  calibrate=False)
        for r in requests:
            fifo.contract(r.left, r.right, r.pairs)
        assert fifo.plan_cache.hit_rate == 0.0

        with small_service(queue_capacity=64, max_batch=24,
                           plan_cache_size=1) as service:
            tickets = [service.submit(r) for r in requests]
            responses = [t.result(30.0) for t in tickets]
            served_rate = service.runtime.plan_cache.hit_rate
        assert all(r.status == "ok" for r in responses)
        assert served_rate > fifo.plan_cache.hit_rate


class TestCrossRequestCSE:
    def network_batch(self, n=4):
        a = random_coo((24, 24), nnz=90, seed=21)
        b = random_coo((24, 24), nnz=90, seed=22)
        c = random_coo((24, 16), nnz=60, seed=23)
        return [Request.network("ij,jk,kl->il", a, b, c) for _ in range(n)]

    def test_micro_batch_shares_step_results(self):
        requests = self.network_batch()
        with small_service(max_batch=8) as service:
            tickets = [service.submit(r) for r in requests]
            responses = [t.result(30.0) for t in tickets]
            hits = service.metrics_json()["network"]["batch_cse_hits"]
        assert all(r.status == "ok" for r in responses)
        assert hits > 0
        ref = responses[0].result.to_dense()
        for r in responses[1:]:
            np.testing.assert_array_equal(ref, r.result.to_dense())

    def test_knob_off_disables_sharing(self):
        requests = self.network_batch()
        with small_service(max_batch=8,
                           cross_request_cse=False) as service:
            tickets = [service.submit(r) for r in requests]
            responses = [t.result(30.0) for t in tickets]
            hits = service.metrics_json()["network"]["batch_cse_hits"]
        assert all(r.status == "ok" for r in responses)
        assert hits == 0

    def test_shared_results_match_direct_execution(self):
        requests = self.network_batch(n=3)
        expected = NetworkExecutor(machine=DESKTOP, passes=False).contract(
            "ij,jk,kl->il",
            *requests[0].operands,
        )
        with small_service(max_batch=8) as service:
            tickets = [service.submit(r) for r in requests]
            responses = [t.result(30.0) for t in tickets]
        for r in responses:
            np.testing.assert_array_equal(
                expected.to_dense(), r.result.to_dense()
            )


class TestLifecycleAndConfig:
    def test_unbounded_config_is_refused(self):
        with pytest.raises(ConfigError):
            ContractionService(
                machine=DESKTOP, config=ServiceConfig(queue_capacity=0)
            )

    def test_unknown_policy_is_refused(self):
        with pytest.raises(ConfigError):
            ServiceConfig(policy="drop_everything")

    def test_submit_before_start_raises(self, operands):
        a, b = operands
        service = small_service()
        with pytest.raises(SchedulerError):
            service.submit(Request.pairwise(a, b, [(1, 0)]))

    def test_stopped_service_cannot_restart(self):
        service = small_service()
        service.start()
        service.stop()
        with pytest.raises(SchedulerError):
            service.start()

    def test_metrics_json_covers_the_stack(self, operands):
        a, b = operands
        with small_service() as service:
            service.call(Request.pairwise(a, b, [(1, 0)]), timeout=30.0)
            doc = service.metrics_json()
        for key in ("submitted", "completed", "statuses", "latency",
                    "queue", "runtime", "network", "machine"):
            assert key in doc
        assert doc["completed"] == 1
        assert doc["queue"]["capacity"] == 16
