"""DependencyTracker: tile-granular invalidation and freshness guards."""

import pytest

from repro.errors import StaleReadError, StreamError
from repro.streaming import DependencyTracker, TensorVersion


class TestVersions:
    def test_versions_start_at_zero_and_bump(self):
        tracker = DependencyTracker()
        assert tracker.version("a") == TensorVersion("a", 0)
        tracker.bump("a")
        tracker.bump("a")
        assert tracker.version("a").version == 2
        assert tracker.names() == ["a"]

    def test_version_value_semantics(self):
        assert TensorVersion("x", 1) == TensorVersion("x", 1)
        assert TensorVersion("x", 1) != TensorVersion("x", 2)
        assert hash(TensorVersion("x", 1)) == hash(TensorVersion("x", 1))


class TestInvalidation:
    def test_whole_tensor_dependency_hit_by_any_bump(self):
        tracker = DependencyTracker()
        tracker.register("lin", "linearized", {"a": None})
        assert tracker.bump("a", tiles=[3]) == ["lin"]
        assert not tracker.is_fresh("lin")

    def test_tile_granular_dependency_misses_disjoint_tiles(self):
        tracker = DependencyTracker()
        tracker.register("t5", "tiled_table", {"a": [5]})
        assert tracker.bump("a", tiles=[3, 7]) == []
        assert tracker.is_fresh("t5")
        assert tracker.bump("a", tiles=[5]) == ["t5"]

    def test_whole_tensor_bump_hits_tile_dependency(self):
        tracker = DependencyTracker()
        tracker.register("t5", "tiled_table", {"a": [5]})
        assert tracker.bump("a", tiles=None) == ["t5"]

    def test_unrelated_tensor_bump_is_invisible(self):
        tracker = DependencyTracker()
        tracker.register("t", "tiled_table", {"a": [1]})
        assert tracker.bump("b") == []
        assert tracker.is_fresh("t")

    def test_empty_deps_refused(self):
        # The FSTC702 condition: unreachable by any invalidation.
        tracker = DependencyTracker()
        with pytest.raises(StreamError):
            tracker.register("orphan", "output", {})

    def test_refresh_restores_freshness(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.bump("a")
        tracker.refresh("out")
        assert tracker.is_fresh("out")
        tracker.assert_fresh("out")  # must not raise

    def test_refresh_with_new_deps_rebinds(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": [1]})
        tracker.refresh("out", deps={"b": None})
        tracker.bump("a", tiles=[1])
        assert tracker.is_fresh("out")
        tracker.bump("b")
        assert not tracker.is_fresh("out")

    def test_stale_read_raises_with_version_drift(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.bump("a")
        tracker.bump("a")  # second bump: seen-version bookkeeping stays sane
        with pytest.raises(StaleReadError):
            tracker.assert_fresh("out")

    def test_unknown_artifact_operations_raise(self):
        tracker = DependencyTracker()
        for call in (tracker.is_fresh, tracker.assert_fresh, tracker.refresh):
            with pytest.raises(StreamError):
                call("ghost")

    def test_unregister(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        assert tracker.unregister("out") is True
        assert tracker.unregister("out") is False
        assert tracker.bump("a") == []

    def test_stats_and_stale_ids(self):
        tracker = DependencyTracker()
        tracker.register("x", "output", {"a": None})
        tracker.register("y", "output", {"b": None})
        tracker.bump("a")
        stats = tracker.stats()
        assert stats["artifacts"] == 2
        assert stats["stale"] == 1
        assert stats["bumps"] == 1
        assert stats["invalidations"] == 1
        assert tracker.stale_ids() == ["x"]
