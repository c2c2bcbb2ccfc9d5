"""FSTC6xx: a serving config with ``autotune=True`` judges its knobs."""

import pytest

from repro.autotune import TunerConfig
from repro.errors import ConfigError, ConfigWarning
from repro.machine.specs import DESKTOP
from repro.serve import ContractionService, ServiceConfig
from tests.conftest import config_warning_codes
from tests.staticcheck.catalogue import source_codes


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    # The default config's relative state path resolves under tmp_path.
    monkeypatch.chdir(tmp_path)


def config(**overrides) -> ServiceConfig:
    base = dict(
        autotune=True, autotune_explore_rate=0.1, autotune_min_trials=3,
        autotune_promote_margin=0.05, autotune_state_path="state.json",
    )
    base.update(overrides)
    return ServiceConfig(**base)


def codes(**overrides):
    """Warning codes of a never-started service built from ``config``."""
    return config_warning_codes(
        lambda: ContractionService(DESKTOP, config(**overrides))
    )


class TestRegistry:
    def test_codes_are_registered(self):
        emitted = source_codes()
        assert emitted["FSTC601"] == "raises"
        assert emitted["FSTC602"] == "warns"
        assert emitted["FSTC603"] == "raises"
        assert emitted["FSTC604"] == "warns"


class TestExploreRate:
    def test_clean_config_has_no_findings(self):
        assert codes() == []

    @pytest.mark.parametrize("rate", [0.0, -0.5])
    def test_non_positive_rate_is_an_error(self, rate):
        with pytest.raises(ConfigError, match="FSTC601.*never explores"):
            config(autotune_explore_rate=rate)

    def test_excessive_rate_is_an_error(self):
        with pytest.raises(ConfigError, match="FSTC601.*workload"):
            config(autotune_explore_rate=0.75)

    def test_half_rate_is_the_boundary(self):
        assert codes(autotune_explore_rate=0.5) == []


class TestPersistenceAndGates:
    def test_unpersisted_state_warns(self):
        assert codes(autotune_state_path=None) == ["FSTC602"]

    def test_zero_margin_is_an_error(self):
        with pytest.raises(ConfigError, match="FSTC603"):
            config(autotune_promote_margin=0.0)

    def test_low_trials_floor_warns(self):
        assert codes(autotune_min_trials=1) == ["FSTC604"]

    def test_everything_wrong_fires_everything(self):
        assert codes(autotune_state_path=None, autotune_min_trials=1) == [
            "FSTC602", "FSTC604",
        ]
        with pytest.raises(ConfigError, match="FSTC601"):
            config(autotune_explore_rate=0.9, autotune_promote_margin=-0.1)
        with pytest.raises(ConfigError, match="FSTC603"):
            config(autotune_promote_margin=-0.1)


class TestDuckTyping:
    def test_disabled_tuner_lints_clean(self):
        assert config_warning_codes(lambda: ContractionService(
            DESKTOP, ServiceConfig(
                autotune=False, autotune_explore_rate=5.0,
                autotune_promote_margin=0.0, autotune_min_trials=0,
            ),
        )) == []

    def test_prefixed_spellings_are_read(self):
        # ServiceConfig's autotune_-prefixed fields carry the knobs.
        with pytest.raises(ConfigError, match="autotune_explore_rate 0.9"):
            config(autotune_explore_rate=0.9)
        assert codes(autotune_min_trials=1) == ["FSTC604"]

    def test_real_tuner_config_lints_clean(self, tmp_path):
        # The serving band is not TunerConfig's: direct callers may
        # explore on every eligible call.
        TunerConfig(state_path=str(tmp_path / "s.json"))
        TunerConfig(explore_rate=1.0)

    def test_location_is_threaded_through(self):
        # The warning points at the line that built the service.
        with pytest.warns(ConfigWarning, match="FSTC602") as record:
            ContractionService(DESKTOP, config(autotune_state_path=None))
        assert record[0].filename == __file__
