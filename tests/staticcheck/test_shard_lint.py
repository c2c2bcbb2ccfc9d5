"""FSTC304: the sharded router warns when its fleet oversubscribes the host."""

import pytest

from repro.serve import ServiceConfig, ShardedConfig, ShardRouter


@pytest.fixture
def cpus(monkeypatch):
    """Pin the host's CPU count the router sees (never starts shards)."""
    def pin(n):
        monkeypatch.setattr("repro.serve.router.os.cpu_count", lambda: n)
    return pin


def router_diagnostics(n_shards, n_workers):
    config = ShardedConfig(
        n_shards=n_shards, service=ServiceConfig(n_workers=n_workers)
    )
    return ShardRouter(config=config).config_diagnostics


class TestShardConfigLint:
    def test_oversubscription_flagged(self, cpus):
        cpus(4)
        out = router_diagnostics(4, 2)
        assert [d.code for d in out] == ["FSTC304"]
        assert out[0].severity == "warning"
        assert out[0].data == {"n_shards": 4, "n_workers": 2, "cpus": 4}

    def test_fitting_fleet_is_clean(self, cpus):
        cpus(8)
        assert router_diagnostics(4, 2) == []

    def test_single_shard_never_flagged(self, cpus):
        # One shard is the unsharded regime; FSTC303 owns that story.
        cpus(1)
        assert router_diagnostics(1, 16) == []
