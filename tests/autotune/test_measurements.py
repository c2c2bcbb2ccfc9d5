"""Measurement store: bounded, associative merge, JSON round-trip."""

import math

import pytest

from repro.autotune.measurements import RECENT_WINDOW, ArmStats, MeasurementStore
from repro.errors import ConfigError


class TestArmStats:
    def test_welford_moments(self):
        s = ArmStats()
        data = [1.0, 2.0, 3.0, 4.0]
        for x in data:
            s.observe(x)
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.variance == pytest.approx(5.0 / 3.0)
        assert s.best == 1.0

    def test_nonfinite_and_negative_rejected(self):
        s = ArmStats()
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            s.observe(bad)
        assert s.count == 0
        s.observe(2.0)
        assert s.count == 1 and s.mean == 2.0

    def test_recent_window_bounded(self):
        s = ArmStats()
        for k in range(3 * RECENT_WINDOW):
            s.observe(float(k))
        assert len(s.recent) == RECENT_WINDOW
        assert s.recent_mean > s.mean  # trailing samples are the largest

    def test_recent_mean_falls_back_to_lifetime(self):
        s = ArmStats(count=5, mean=0.7)
        assert s.recent_mean == 0.7

    def test_merge_matches_pooled_stream(self):
        a, b, pooled = ArmStats(), ArmStats(), ArmStats()
        xs = [0.5, 1.5, 2.5]
        ys = [0.1, 0.9, 1.1, 3.0]
        for x in xs:
            a.observe(x)
            pooled.observe(x)
        for y in ys:
            b.observe(y)
            pooled.observe(y)
        a.merge(b)
        assert a.count == pooled.count
        assert a.mean == pytest.approx(pooled.mean)
        assert a.m2 == pytest.approx(pooled.m2)
        assert a.best == pooled.best

    def test_merge_is_associative(self):
        def stream(seed):
            s = ArmStats()
            for k in range(5):
                s.observe(0.1 * (seed + 1) * (k + 1))
            return s

        left = stream(0)
        left.merge(stream(1))
        left.merge(stream(2))
        right_tail = stream(1)
        right_tail.merge(stream(2))
        right = stream(0)
        right.merge(right_tail)
        assert left.count == right.count
        assert left.mean == pytest.approx(right.mean)
        assert left.m2 == pytest.approx(right.m2)

    def test_merge_into_empty_copies(self):
        a, b = ArmStats(), ArmStats()
        b.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert (a.count, a.mean) == (2, 2.0)

    def test_json_round_trip(self):
        s = ArmStats()
        for x in (0.2, 0.4, 0.9):
            s.observe(x)
        back = ArmStats.from_json(s.to_json())
        assert back.count == s.count
        assert back.mean == pytest.approx(s.mean)
        assert back.best == s.best
        assert back.recent == s.recent

    def test_json_round_trip_empty_best(self):
        back = ArmStats.from_json(ArmStats().to_json())
        assert back.count == 0 and back.best == math.inf


class TestMeasurementStore:
    def test_observe_and_lookup(self):
        store = MeasurementStore()
        store.observe("sig", "arm", 0.5)
        store.observe("sig", "arm", 1.5)
        assert store.trials("sig", "arm") == 2
        assert store.stats_for("sig", "arm").mean == pytest.approx(1.0)
        assert store.stats_for("sig", "other") is None
        assert store.arms("missing") == {}

    def test_config_validated(self):
        with pytest.raises(ConfigError):
            MeasurementStore(max_signatures=0)
        with pytest.raises(ConfigError):
            MeasurementStore(max_arms=1)

    def test_signature_lru_eviction(self):
        store = MeasurementStore(max_signatures=2)
        store.observe("a", "x", 0.1)
        store.observe("b", "x", 0.1)
        store.observe("a", "x", 0.1)  # refresh a's recency
        store.observe("c", "x", 0.1)  # evicts b
        assert store.signatures() == ["a", "c"]
        assert store.evicted_signatures == 1

    def test_arm_lru_eviction_per_signature(self):
        store = MeasurementStore(max_arms=2)
        store.observe("s", "a1", 0.1)
        store.observe("s", "a2", 0.1)
        store.observe("s", "a3", 0.1)
        assert sorted(store.arms("s")) == ["a2", "a3"]

    def test_merge_matches_pooled(self):
        a, b = MeasurementStore(), MeasurementStore()
        a.observe("s", "x", 1.0)
        a.observe("s", "x", 3.0)
        b.observe("s", "x", 5.0)
        b.observe("t", "y", 0.5)
        a.merge(b)
        assert a.stats_for("s", "x").count == 3
        assert a.stats_for("s", "x").mean == pytest.approx(3.0)
        assert a.stats_for("t", "y").count == 1
        assert a.summary()["samples"] == 4

    def test_merge_refreshes_recency_before_eviction(self):
        # A full store merging a peer that holds c and a: both become the
        # most recent (in the peer's order), so the untouched b is the
        # one evicted, not a, which just received the peer's samples.
        mine, peer = MeasurementStore(max_signatures=2), MeasurementStore()
        mine.observe("a", "x", 0.1)
        mine.observe("b", "x", 0.1)
        peer.observe("c", "x", 0.2)
        peer.observe("a", "x", 0.3)
        mine.merge(peer)
        assert mine.signatures() == ["c", "a"]
        assert mine.evicted_signatures == 1
        assert mine.trials("a", "x") == 2

    def test_merge_refreshes_arm_recency(self):
        mine, peer = MeasurementStore(max_arms=2), MeasurementStore()
        mine.observe("s", "a1", 0.1)
        mine.observe("s", "a2", 0.1)
        peer.observe("s", "a3", 0.1)
        peer.observe("s", "a1", 0.1)
        mine.merge(peer)
        assert list(mine.arms("s")) == ["a3", "a1"]

    def test_merge_does_not_mutate_source(self):
        a, b = MeasurementStore(), MeasurementStore()
        b.observe("s", "x", 1.0)
        a.merge(b)
        a.observe("s", "x", 9.0)
        assert b.stats_for("s", "x").count == 1

    def test_json_round_trip(self):
        store = MeasurementStore(max_signatures=8, max_arms=4)
        store.observe("s1", "a", 0.25)
        store.observe("s1", "b", 0.75)
        store.observe("s2", "a", 1.25)
        back = MeasurementStore.from_json(store.to_json())
        assert back.max_signatures == 8 and back.max_arms == 4
        assert back.stats_for("s1", "b").mean == pytest.approx(0.75)
        assert back.summary()["samples"] == 3
