"""FSTC7xx: the tracker enforces 701/702, a service config warns 703/704."""

import pytest

from repro.errors import ConfigError, StaleReadError, StreamError
from repro.machine.specs import DESKTOP
from repro.serve import ContractionService, ServiceConfig
from repro.staticcheck import audit_code_registry
from repro.staticcheck.diagnostics import CODES
from repro.streaming import DependencyTracker, IncrementalEngine


def codes(**overrides):
    """Codes a never-started service warns for ``ServiceConfig(**overrides)``."""
    service = ContractionService(DESKTOP, ServiceConfig(**overrides))
    return sorted(d.code for d in service.config_diagnostics)


class TestTrackerLint:
    def test_clean_tracker_has_no_findings(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.assert_fresh("out")

    def test_stale_registered_artifact_is_fstc701(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.bump("a")
        with pytest.raises(StaleReadError, match="FSTC701"):
            tracker.assert_fresh("out")
        assert CODES["FSTC701"][0] == "error"

    def test_refresh_clears_fstc701(self):
        tracker = DependencyTracker()
        tracker.register("out", "output", {"a": None})
        tracker.bump("a")
        tracker.refresh("out")
        tracker.assert_fresh("out")

    def test_depless_artifact_is_fstc702(self):
        tracker = DependencyTracker()
        with pytest.raises(StreamError, match="FSTC702"):
            tracker.register("x", "output", {})
        assert CODES["FSTC702"][0] == "error"

    def test_engine_tracker_lints_clean_end_to_end(self):
        from repro.data.random_tensors import random_coo

        engine = IncrementalEngine()
        engine.register(
            "s",
            random_coo((64, 8), nnz=60, seed=0),
            random_coo((8, 8), nnz=20, seed=1),
            [(1, 0)],
        )
        for artifact in engine.tracker.artifacts():
            assert artifact.deps
            engine.tracker.assert_fresh(artifact.artifact_id)


class TestConfigLint:
    def test_sane_config_is_clean(self):
        assert codes(
            stream_staleness_threshold=0.75, stream_log_maxlen=1_000_000
        ) == []

    def test_absent_knobs_are_clean(self):
        # A config that never sets the stream_* fields gets defaults the
        # engine accepts and nothing to warn about.
        assert codes(queue_capacity=8) == []

    def test_zero_threshold_is_fstc703(self):
        # A threshold that never patches is refused by the range check
        # the engine applies, not merely warned.
        with pytest.raises(ConfigError, match="staleness_threshold"):
            ServiceConfig(stream_staleness_threshold=0.0)
        assert CODES["FSTC703"][0] == "warning"

    def test_oversized_threshold_is_fstc703(self):
        assert codes(stream_staleness_threshold=0.9) == ["FSTC703"]

    def test_unbounded_log_is_fstc704(self):
        with pytest.raises(ConfigError, match="log_maxlen"):
            ServiceConfig(stream_log_maxlen=0)
        assert codes(stream_log_maxlen=10_000_000) == ["FSTC704"]
        assert CODES["FSTC704"][0] == "warning"

    def test_stream_prefixed_knobs_are_read(self):
        assert codes(
            stream_staleness_threshold=1.0, stream_log_maxlen=2_000_000
        ) == ["FSTC703", "FSTC704"]

    def test_engine_defaults_lint_clean(self):
        engine = IncrementalEngine()
        assert codes(
            stream_staleness_threshold=engine.staleness_threshold,
            stream_log_maxlen=engine.log_maxlen,
        ) == []


class TestRegistry:
    def test_fstc7xx_codes_are_documented(self):
        # docs/staticcheck.md must describe every registered code with
        # its severity (the FSTC105 self-audit).
        assert audit_code_registry() == []

    def test_fstc7xx_codes_registered(self):
        for code in ("FSTC701", "FSTC702", "FSTC703", "FSTC704"):
            assert code in CODES
