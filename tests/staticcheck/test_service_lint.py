"""FSTC3xx service-configuration rules, raised or warned by the service."""

from types import SimpleNamespace

import pytest

from repro.data.random_tensors import random_coo
from repro.errors import ConfigError, ConfigWarning
from repro.machine.specs import DESKTOP
from repro.serve import ContractionService, ServiceConfig, synthetic_requests
from repro.serve.service import cost_floor_seconds
from tests.conftest import config_warning_codes
from tests.staticcheck.catalogue import documented_codes, find_docs, source_codes


def codes(**overrides):
    """Warning codes of a never-started service."""
    return config_warning_codes(
        lambda: ContractionService(DESKTOP, ServiceConfig(**overrides))
    )


@pytest.fixture
def pairwise_request():
    a = random_coo((40, 30), nnz=200, seed=1)
    b = random_coo((30, 20), nnz=150, seed=2)
    return SimpleNamespace(kind="pairwise", left=a, right=b, pairs=((1, 0),))


@pytest.fixture
def network_request():
    a = random_coo((20, 16), nnz=80, seed=3)
    b = random_coo((16, 12), nnz=60, seed=4)
    return SimpleNamespace(
        kind="network", subscripts="ij,jk->ik", operands=(a, b),
    )


class TestRegistry:
    def test_codes_are_registered(self):
        emitted = source_codes()
        assert emitted["FSTC301"] == "raises"
        assert emitted["FSTC303"] == "warns"
        # Retired with the request-deadline lint; the code stays unused.
        assert "FSTC302" not in emitted


class TestConfigLint:
    def test_clean_config_has_no_findings(self):
        assert codes() == []

    @pytest.mark.parametrize("capacity", [None, 0, -1])
    def test_unbounded_queue_is_an_error(self, capacity):
        with pytest.raises(ConfigError, match="FSTC301: queue_capacity"):
            ServiceConfig(queue_capacity=capacity)

    def test_zero_workers_is_an_error(self):
        with pytest.raises(ConfigError, match="FSTC301: n_workers"):
            ServiceConfig(n_workers=0)

    def test_zero_batch_is_an_error(self):
        with pytest.raises(ConfigError, match="FSTC301: max_batch"):
            ServiceConfig(max_batch=0)

    def test_oversubscribed_pool_warns(self):
        with pytest.warns(ConfigWarning, match="FSTC303: 9 workers"):
            ContractionService(DESKTOP, ServiceConfig(n_workers=9))
        assert codes(n_workers=DESKTOP.n_cores + 1) == ["FSTC303"]

    def test_location_is_threaded_through(self):
        # The warning points at the line that built the service.
        with pytest.warns(ConfigWarning) as record:
            ContractionService(
                DESKTOP, ServiceConfig(n_workers=DESKTOP.n_cores + 1)
            )
        assert record[0].filename == __file__
        assert str(record[0].message).startswith("FSTC303: ")


class TestCostFloor:
    def test_pairwise_floor_is_positive(self, pairwise_request):
        assert cost_floor_seconds(pairwise_request, DESKTOP) > 0

    def test_network_floor_is_positive(self, network_request):
        assert cost_floor_seconds(network_request, DESKTOP) > 0

    def test_unpriceable_request_floors_at_zero(self):
        broken = SimpleNamespace(kind="pairwise", left=None, right=None,
                                 pairs=())
        assert cost_floor_seconds(broken, DESKTOP) == 0.0

    def test_floors_are_pinned(self):
        # The degradation ladder compares budgets against these floors,
        # so their values are part of the service's behaviour.
        floors = sorted({
            cost_floor_seconds(r, DESKTOP)
            for r in synthetic_requests(60, n_signatures=3, seed=0)
        })
        assert floors == [1.02e-06, 1.06e-06, 1.1e-06]


class TestDocsAudit:
    def test_catalogue_documents_the_service_codes(self):
        documented = documented_codes(find_docs().read_text(encoding="utf-8"))
        emitted = source_codes()
        for code in ("FSTC301", "FSTC303", "FSTC304"):
            assert documented[code] == emitted[code]
