"""Unit tests for the consistent-hash ring."""

import pytest

from repro.errors import ConfigError
from repro.serve.sharding import (
    HashRing,
    ring_shares,
    suggest_weights,
)

KEYS = [f"sig{i}" for i in range(400)]


class TestHashRing:
    def test_routing_is_deterministic_across_rings(self):
        a = HashRing(range(4))
        b = HashRing(range(4))
        assert [a.route(k) for k in KEYS] == [b.route(k) for k in KEYS]

    def test_membership_and_len(self):
        ring = HashRing(range(3))
        assert len(ring) == 3
        assert 2 in ring and 7 not in ring
        assert ring.shards == [0, 1, 2]

    def test_empty_ring_refuses_to_route(self):
        with pytest.raises(ConfigError):
            HashRing().route("sig0")

    def test_every_key_lands_on_a_member(self):
        ring = HashRing(range(5))
        assert all(ring.route(k) in ring for k in KEYS)

    def test_balance_within_tolerance(self):
        # 128 vnodes/shard keeps each shard's share of a large key set
        # within ~2x of fair.
        ring = HashRing(range(4))
        shares = ring_shares(ring, KEYS)
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share > 0 for share in shares.values())
        assert max(shares.values()) < 2.0 * 0.25

    def test_minimal_movement_on_removal(self):
        # Dropping one shard must remap only the keys it owned.
        ring = HashRing(range(4))
        before = {k: ring.route(k) for k in KEYS}
        ring.remove_shard(2)
        for key, owner in before.items():
            if owner != 2:
                assert ring.route(key) == owner

    def test_minimal_movement_on_addition(self):
        # Adding a shard only steals keys, never shuffles survivors.
        ring = HashRing(range(3))
        before = {k: ring.route(k) for k in KEYS}
        ring.add_shard(3)
        moved = [k for k in KEYS if ring.route(k) != before[k]]
        assert all(ring.route(k) == 3 for k in moved)
        assert 0 < len(moved) < len(KEYS) / 2

    def test_remove_unknown_shard_raises(self):
        with pytest.raises(ConfigError):
            HashRing(range(2)).remove_shard(9)

    def test_weights_shift_share(self):
        light = HashRing(range(2))
        heavy = HashRing(range(2), weights={0: 4.0, 1: 1.0})
        assert (ring_shares(heavy, KEYS)[0]
                > ring_shares(light, KEYS)[0])

    def test_set_weights_rejects_unknown_shards(self):
        ring = HashRing(range(2))
        with pytest.raises(ConfigError):
            ring.set_weights({5: 1.0})

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            HashRing(replicas=0)
        with pytest.raises(ConfigError):
            HashRing(range(2)).add_shard(3, weight=0.0)


class TestSuggestWeights:
    def test_overloaded_shard_loses_weight(self):
        ring = HashRing(range(2))
        weights = suggest_weights(ring, {0: 30.0, 1: 10.0})
        assert weights[0] < 1.0 < weights[1]

    def test_balanced_loads_keep_weights(self):
        ring = HashRing(range(3))
        weights = suggest_weights(ring, {0: 5.0, 1: 5.0, 2: 5.0})
        assert all(w == pytest.approx(1.0) for w in weights.values())

    def test_weights_are_clamped(self):
        from repro.serve.sharding import MAX_WEIGHT, MIN_WEIGHT

        ring = HashRing(range(2))
        for _ in range(20):
            ring.set_weights(suggest_weights(ring, {0: 1e6, 1: 1e-6}, gain=1.0))
        assert ring.weight(0) == pytest.approx(MIN_WEIGHT)
        assert ring.weight(1) == pytest.approx(MAX_WEIGHT)

    def test_rebalancing_evens_a_skewed_split(self):
        # The router's rebalance loop: route, measure, re-weight.  A few
        # rounds must shrink the worst share for a fixed key set.
        ring = HashRing(range(4))
        worst0 = max(ring_shares(ring, KEYS).values())
        for _ in range(5):
            loads = {
                s: len(owned)
                for s, owned in ring.assignment(KEYS).items()
            }
            ring.set_weights(suggest_weights(ring, loads))
        assert max(ring_shares(ring, KEYS).values()) <= worst0

    def test_unknown_and_empty_loads_are_ignored(self):
        ring = HashRing(range(2))
        assert suggest_weights(ring, {}) == {0: 1.0, 1: 1.0}
        assert suggest_weights(ring, {9: 5.0}) == {0: 1.0, 1: 1.0}

    def test_gain_validated(self):
        with pytest.raises(ConfigError):
            suggest_weights(HashRing(range(2)), {0: 1.0}, gain=0.0)


class TestHashRingProperties:
    """Hypothesis property tests for the ring's edge cases: single-shard
    totality, weight clamping at the extremes, and virtual-node
    determinism across independently built rings (and across
    processes — BLAKE2b placement must not depend on PYTHONHASHSEED)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=60, deadline=None)
    @given(key=st.text(min_size=0, max_size=40),
           replicas=st.integers(1, 64),
           shard=st.integers(-1000, 1000))
    def test_single_shard_ring_routes_everything_to_it(self, key, replicas, shard):
        ring = HashRing([shard], replicas=replicas)
        assert ring.route(key) == shard

    @settings(max_examples=40, deadline=None)
    @given(weight=st.floats(0.01, 50.0, allow_nan=False))
    def test_any_positive_weight_keeps_at_least_one_vnode(self, weight):
        ring = HashRing(replicas=4)
        ring.add_shard(0, weight=weight)
        assert len(ring._points) >= 1
        assert ring.route("anything") == 0

    @settings(max_examples=40, deadline=None)
    @given(weight=st.floats(-10.0, 0.0))
    def test_nonpositive_weight_rejected(self, weight):
        ring = HashRing()
        with pytest.raises(ConfigError):
            ring.add_shard(0, weight=weight)

    @settings(max_examples=30, deadline=None)
    @given(loads=st.dictionaries(st.integers(0, 3),
                                 st.floats(0, 1e9, allow_nan=False),
                                 min_size=1, max_size=4),
           gain=st.floats(0.05, 1.0))
    def test_suggested_weights_always_inside_clamp(self, loads, gain):
        from repro.serve.sharding import MAX_WEIGHT, MIN_WEIGHT

        ring = HashRing(range(4))
        out = suggest_weights(ring, loads, gain=gain)
        assert set(out) == set(ring.shards)
        for weight in out.values():
            assert MIN_WEIGHT <= weight <= MAX_WEIGHT
        ring.set_weights(out)  # the suggestion must always be applicable

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 8),
           replicas=st.integers(1, 128),
           keys=st.lists(st.text(max_size=24), min_size=1, max_size=30))
    def test_independent_rings_route_identically(self, n, replicas, keys):
        a = HashRing(range(n), replicas=replicas)
        b = HashRing(range(n), replicas=replicas)
        for key in keys:
            assert a.route(key) == b.route(key)

    def test_vnode_placement_is_stable_across_processes(self):
        """Routing decisions must survive a process boundary: a child
        interpreter (fresh hash seed) routes the key set exactly as the
        parent does."""
        import json
        import subprocess
        import sys

        keys = [f"sig{i}" for i in range(64)]
        parent = {k: HashRing(range(4)).route(k) for k in keys}
        script = (
            "import json, sys\n"
            "from repro.serve.sharding import HashRing\n"
            "ring = HashRing(range(4))\n"
            "keys = json.load(sys.stdin)\n"
            "json.dump({k: ring.route(k) for k in keys}, sys.stdout)\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(keys), capture_output=True, text=True,
            check=True,
        )
        assert {k: int(v) for k, v in json.loads(child.stdout).items()} == parent
