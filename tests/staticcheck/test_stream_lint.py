"""FSTC7xx: a service config warns FSTC703 (701/702/704 are retired)."""

import pytest

from repro.errors import ConfigError
from repro.machine.specs import DESKTOP
from repro.serve import ContractionService, ServiceConfig
from repro.streaming import IncrementalEngine
from tests.conftest import config_warning_codes
from tests.staticcheck.catalogue import documented_codes, find_docs, source_codes

RETIRED = ("FSTC701", "FSTC702", "FSTC704")


def codes(**overrides):
    """Codes a never-started service warns for ``ServiceConfig(**overrides)``."""
    return sorted(config_warning_codes(
        lambda: ContractionService(DESKTOP, ServiceConfig(**overrides))
    ))


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
        assert source_codes()["FSTC703"] == "warns"

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
        documented = documented_codes(find_docs().read_text(encoding="utf-8"))
        assert documented["FSTC703"] == "warns"
        assert not set(RETIRED) & set(documented)

    def test_fstc7xx_codes_registered(self):
        emitted = source_codes()
        assert emitted["FSTC703"] == "warns"
        assert not set(RETIRED) & set(emitted)
