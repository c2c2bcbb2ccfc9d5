"""Integration tests for the process-sharded router.

Real spawned shard processes are slow to start, so the happy-path
assertions share one module-scoped 2-shard router; the failure-story
tests (kill/requeue, respawn, warm-start) each build their own small
fleet.
"""

import numpy as np
import pytest

from repro import contract
from repro.errors import ConfigError, ConfigWarning, SchedulerError
from repro.machine.specs import DESKTOP
from repro.serve import (
    Request,
    ServiceConfig,
    ShardedConfig,
    ShardRouter,
    synthetic_requests,
)

SERVICE = ServiceConfig(queue_capacity=32, policy="reject", n_workers=1)


def small_config(**overrides) -> ShardedConfig:
    defaults = dict(n_shards=2, service=SERVICE)
    defaults.update(overrides)
    return ShardedConfig(**defaults)


@pytest.fixture(scope="module")
def router():
    with ShardRouter(machine=DESKTOP, config=small_config()) as r:
        yield r


class TestRouting:
    def test_results_bit_identical_to_direct_contract(self, router):
        requests = synthetic_requests(8, n_signatures=4, seed=21)
        tickets = [router.submit(r) for r in requests]
        for request, ticket in zip(requests, tickets):
            response = ticket.result(60.0)
            assert response.status == "ok"
            direct = contract(request.left, request.right, request.pairs)
            np.testing.assert_array_equal(
                response.result.to_dense(), direct.to_dense()
            )

    def test_signature_affinity_is_stable(self, router):
        # Same signature -> same shard, every time.
        requests = synthetic_requests(6, n_signatures=1, seed=22)
        key = requests[0].affinity_key(DESKTOP)
        owner = router.ring.route(key)
        for t in [router.submit(r) for r in requests]:
            assert t.result(60.0).status == "ok"
        assert all(
            router.ring.route(r.affinity_key(DESKTOP)) == owner
            for r in requests
        )

    def test_network_requests_route_and_execute(self, router):
        from repro.data.random_tensors import random_coo

        a = random_coo((12, 8), nnz=40, seed=31)
        b = random_coo((8, 10), nnz=40, seed=32)
        response = router.call(
            Request.network("ij,jk->ik", a, b), timeout=60.0
        )
        assert response.status == "ok"
        from repro import einsum

        np.testing.assert_array_equal(
            response.result.to_dense(),
            einsum("ij,jk->ik", a, b).to_dense(),
        )

    def test_metrics_json_aggregates_shards(self, router):
        doc = router.metrics_json()
        assert doc["router"]["n_shards"] == 2
        assert doc["router"]["live_shards"] == 2
        assert set(doc["shards"]) == {"0", "1"}
        agg_ok = doc["aggregate"]["statuses"]["ok"]
        assert agg_ok == sum(
            s["statuses"]["ok"] for s in doc["shards"].values()
        )
        assert doc["queue"]["capacity"] == router.config.max_in_flight

    def test_rebalance_returns_applied_weights(self, router):
        weights = router.rebalance({0: 10.0, 1: 2.0})
        assert set(weights) == {0, 1}
        assert weights[0] < weights[1]
        assert router.ring.weight(0) == weights[0]
        router.rebalance({0: 1.0, 1: 1.0})

    def test_submit_requires_running_router(self):
        router = ShardRouter(config=small_config())
        with pytest.raises(SchedulerError):
            router.submit(synthetic_requests(1, seed=1)[0])


class TestAdmission:
    def test_router_sheds_past_in_flight_bound(self):
        config = small_config(n_shards=1, max_in_flight=1)
        requests = synthetic_requests(10, n_signatures=1, seed=23)
        with ShardRouter(config=config) as router:
            tickets = [router.submit(r) for r in requests]
            statuses = [t.result(60.0).status for t in tickets]
        assert "shed" in statuses
        assert statuses.count("ok") >= 1
        shed = [s for s in statuses if s == "shed"]
        assert router.shed_at_router == len(shed)


class TestFailureStory:
    def test_killed_shard_loses_no_accepted_request(self):
        config = small_config(max_retries=2)
        requests = synthetic_requests(10, n_signatures=4, seed=24)
        with ShardRouter(config=config) as router:
            tickets = [router.submit(r) for r in requests[:6]]
            router.kill_shard(0)
            tickets += [router.submit(r) for r in requests[6:]]
            responses = [t.result(120.0) for t in tickets]
            doc = router.metrics_json()
        accepted = [r for r in responses if r.status != "shed"]
        assert all(r.status == "ok" for r in accepted)
        assert len(accepted) == len(requests)
        assert doc["router"]["deaths"] == 1
        assert doc["router"]["live_shards"] == 1

    def test_no_survivor_resolves_failed_or_shed(self):
        config = small_config(n_shards=1, max_retries=2)
        requests = synthetic_requests(4, n_signatures=2, seed=25)
        with ShardRouter(config=config) as router:
            tickets = [router.submit(r) for r in requests]
            router.kill_shard(0)
            statuses = {t.result(60.0).status for t in tickets}
            late = router.submit(requests[0]).result(10.0)
        # Every ticket still resolves terminally; nothing hangs.
        assert statuses <= {"ok", "failed", "shed"}
        assert late.status == "shed"

    def test_respawned_shard_rejoins_the_ring(self):
        import time

        config = small_config(respawn=True)
        requests = synthetic_requests(4, n_signatures=2, seed=26)
        with ShardRouter(config=config) as router:
            for t in [router.submit(r) for r in requests]:
                assert t.result(60.0).status == "ok"
            router.kill_shard(1)
            deadline = time.monotonic() + 90.0
            while time.monotonic() < deadline:
                doc = router.metrics_json()
                if (doc["router"]["respawns"] >= 1
                        and doc["router"]["live_shards"] == 2):
                    break
                time.sleep(0.2)
            assert doc["router"]["respawns"] >= 1
            assert doc["router"]["live_shards"] == 2
            for t in [router.submit(r) for r in requests]:
                assert t.result(60.0).status == "ok"


class TestWarmStart:
    def test_plan_caches_warm_across_restarts(self, tmp_path):
        cache_dir = str(tmp_path / "caches")
        config = small_config(cache_dir=cache_dir)
        requests = synthetic_requests(6, n_signatures=3, seed=27)
        with ShardRouter(config=config) as router:
            for t in [router.submit(r) for r in requests]:
                assert t.result(60.0).status == "ok"
        # Fresh processes, same cache_dir: shards report warm entries
        # and the first recurrence of each signature is already a hit.
        with ShardRouter(config=config) as router:
            doc = router.metrics_json()
            warm = doc["router"]["warm_entries"]
            assert sum(warm.values()) >= 3
            for t in [router.submit(r) for r in requests]:
                assert t.result(60.0).status == "ok"
            doc = router.metrics_json()
        runtime = doc["aggregate"]["runtime"]
        assert runtime["plan_cache_misses"] == 0
        assert runtime["plan_cache_hits"] == len(requests)


class TestConfigValidation:
    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigError):
            ShardedConfig(n_shards=0)
        with pytest.raises(ConfigError):
            ShardedConfig(max_in_flight=0)
        with pytest.raises(ConfigError):
            ShardedConfig(max_retries=-1)

    def test_oversubscription_is_a_warning_not_an_error(self):
        config = ShardedConfig(
            n_shards=64, service=ServiceConfig(n_workers=4)
        )
        with pytest.warns(ConfigWarning, match="FSTC304"):
            ShardRouter(config=config)  # never started


class TestInterruptSafety:
    """Regression: `serve --shards N` used to leak spawned shard processes
    when a KeyboardInterrupt landed during startup — the CLI's context
    manager never ran __exit__ for an exception raised inside start().
    The CLI now calls close() from a finally block, and close() must
    reap every child no matter where the interrupt landed."""

    class _InterruptingEvent:
        """Stands in for a shard's ready event; the wait is where a
        Ctrl-C lands in the leaked-process scenario."""

        def wait(self, timeout=None):
            raise KeyboardInterrupt

        def clear(self):
            pass

        def set(self):
            pass

        def is_set(self):
            return False

    def test_interrupt_during_start_reaps_all_shards(self):
        router = ShardRouter(machine=DESKTOP, config=small_config())
        router._shards[1].ready = self._InterruptingEvent()
        with pytest.raises(KeyboardInterrupt):
            router.start()
        for shard in router._shards.values():
            assert shard.process is None or not shard.process.is_alive(), (
                f"shard {shard.shard_id} leaked its process"
            )
        assert not router.running
        router.close()  # the CLI's finally must be safe to run after

    def test_close_before_start_is_safe_and_idempotent(self):
        router = ShardRouter(machine=DESKTOP, config=small_config())
        router.close()
        router.close()
        assert not router.running

    def test_close_after_normal_start_reaps_processes(self):
        router = ShardRouter(machine=DESKTOP, config=small_config())
        router.start()
        processes = [s.process for s in router._shards.values()]
        assert all(p is not None and p.is_alive() for p in processes)
        router.close()
        assert all(not p.is_alive() for p in processes)
        router.close()  # idempotent

    def test_service_close_stops_and_is_idempotent(self):
        from repro.serve import ContractionService

        service = ContractionService(machine=DESKTOP, config=SERVICE)
        service.start()
        assert service.running
        service.close()
        assert not service.running
        service.close()
        # A closed queue sheds new arrivals instead of hanging them.
        ticket = service.submit(synthetic_requests(1, n_signatures=1, seed=3)[0])
        assert ticket.result(5.0).status == "shed"
