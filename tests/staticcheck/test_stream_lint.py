"""FSTC7xx: a service config warns FSTC703 (701/702/704 are retired)."""

import pytest

from repro.errors import ConfigError
from repro.machine.specs import DESKTOP
from repro.serve import ContractionService, ServiceConfig
from repro.staticcheck import audit_code_registry
from repro.staticcheck.diagnostics import CODES
from repro.streaming import IncrementalEngine


def codes(**overrides):
    """Codes a never-started service warns for ``ServiceConfig(**overrides)``."""
    service = ContractionService(DESKTOP, ServiceConfig(**overrides))
    return sorted(d.code for d in service.config_diagnostics)


class TestConfigLint:
    def test_sane_config_is_clean(self):
        assert codes(stream_staleness_threshold=0.75) == []

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

    def test_stream_prefixed_knobs_are_read(self):
        assert codes(stream_staleness_threshold=1.0) == ["FSTC703"]
        with pytest.raises(TypeError):  # the log bound went with the log
            ServiceConfig(stream_log_maxlen=256)

    def test_engine_defaults_lint_clean(self):
        engine = IncrementalEngine()
        assert codes(
            stream_staleness_threshold=engine.staleness_threshold,
        ) == []


class TestRegistry:
    def test_fstc7xx_codes_are_documented(self):
        # docs/staticcheck.md must describe every registered code with
        # its severity (the FSTC105 self-audit).
        assert audit_code_registry() == []

    def test_fstc7xx_codes_registered(self):
        assert "FSTC703" in CODES
        for retired in ("FSTC701", "FSTC702", "FSTC704"):
            assert retired not in CODES
