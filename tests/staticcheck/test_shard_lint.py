"""FSTC304: the sharded router warns when its fleet oversubscribes the host."""

import pytest

from repro.errors import ConfigWarning
from repro.serve import ServiceConfig, ShardedConfig, ShardRouter
from tests.conftest import config_warning_codes


@pytest.fixture
def cpus(monkeypatch):
    """Pin the host's CPU count the router sees (never starts shards)."""
    def pin(n):
        monkeypatch.setattr("repro.serve.router.os.cpu_count", lambda: n)
    return pin


def router(n_shards, n_workers):
    config = ShardedConfig(
        n_shards=n_shards, service=ServiceConfig(n_workers=n_workers)
    )
    return ShardRouter(config=config)


class TestShardConfigLint:
    def test_oversubscription_flagged(self, cpus):
        cpus(4)
        with pytest.warns(ConfigWarning) as record:
            router(4, 2)
        assert [str(w.message) for w in record][0].startswith(
            "FSTC304: 4 shards x 2 workers want 8 cores but the host has 4;"
        )
        assert config_warning_codes(lambda: router(4, 2)) == ["FSTC304"]

    def test_fitting_fleet_is_clean(self, cpus):
        cpus(8)
        assert config_warning_codes(lambda: router(4, 2)) == []

    def test_single_shard_never_flagged(self, cpus):
        # One shard is the unsharded regime; FSTC303 owns that story.
        cpus(1)
        assert config_warning_codes(lambda: router(1, 16)) == []
