"""Tests for network plan signatures, serialization, and explain()."""

import json

import pytest

from repro.errors import PlanError
from repro.machine.specs import DESKTOP, SERVER
from repro.network.ir import TensorNetwork
from repro.network.optimize import build_plan
from repro.network.plan import NetworkPlan, NetworkSignature


def chain_network():
    return TensorNetwork.parse(
        "ij,jk,kl->il",
        [(2000, 600), (600, 500), (500, 40)],
        nnz=[24_000, 15_000, 1_000],
    )


class TestNetworkSignature:
    def test_key_is_stable_and_descriptive(self):
        sig = NetworkSignature.for_network(chain_network(), DESKTOP, "dp")
        assert sig.key == (
            "Eij,jk,kl->il|S2000x600;600x500;500x40|n24000,15000,1000"
            f"|M{DESKTOP.name};{DESKTOP.n_cores};{DESKTOP.l3_bytes};"
            f"{DESKTOP.l2_bytes_per_core};{DESKTOP.word_bytes}|Odp"
        )

    def test_key_distinguishes_machines(self):
        net = chain_network()
        a = NetworkSignature.for_network(net, DESKTOP, "dp").key
        b = NetworkSignature.for_network(net, SERVER, "dp").key
        assert a != b

    def test_key_distinguishes_nnz(self):
        a = NetworkSignature.for_network(chain_network(), DESKTOP, "dp")
        other = TensorNetwork.parse(
            "ij,jk,kl->il",
            [(2000, 600), (600, 500), (500, 40)],
            nnz=[24_000, 15_000, 999],
        )
        b = NetworkSignature.for_network(other, DESKTOP, "dp")
        assert a.key != b.key

    def test_signature_hashable(self):
        net = chain_network()
        a = NetworkSignature.for_network(net, DESKTOP, "dp")
        b = NetworkSignature.for_network(net, DESKTOP, "dp")
        assert a == b
        assert len({a, b}) == 1


class TestSerialization:
    def test_roundtrip_through_json_text(self):
        plan = build_plan(chain_network(), DESKTOP, "dp")
        restored = NetworkPlan.from_json(
            json.loads(json.dumps(plan.to_json()))
        )
        assert restored == plan
        assert restored.path == plan.path
        assert restored.steps[0].pairs == plan.steps[0].pairs

    def test_version_mismatch_rejected(self):
        payload = build_plan(chain_network(), DESKTOP, "dp").to_json()
        payload["version"] = 99
        with pytest.raises(PlanError, match="version"):
            NetworkPlan.from_json(payload)

    def test_plans_saved_without_a_guard_still_load(self):
        plan = build_plan(chain_network(), DESKTOP, "dp")
        payload = plan.to_json()
        assert {s["guard"] for s in payload["steps"]} == {"ok"}
        for step in payload["steps"]:
            del step["guard"]
        assert {s.guard for s in NetworkPlan.from_json(payload).steps} == {""}

    def test_payload_is_json_friendly(self):
        payload = build_plan(chain_network(), DESKTOP, "greedy").to_json()
        text = json.dumps(payload)
        assert '"signature_key"' in text
        assert '"steps"' in text


class TestExplain:
    def test_explain_lists_every_step(self):
        plan = build_plan(chain_network(), DESKTOP, "dp")
        text = plan.explain()
        assert "network plan: ij,jk,kl->il" in text
        assert "optimizer=dp" in text
        for k in range(plan.n_steps):
            assert f"step {k}:" in text

    def test_explain_reports_pre_reduction(self):
        net = TensorNetwork.parse("ijm,jk->ki", [(3, 4, 5), (4, 6)])
        text = build_plan(net, DESKTOP, "dp").explain()
        assert "pre-reduced operands" in text
        assert "ijm->ij" in text

    def test_explain_marks_outer_steps(self):
        net = TensorNetwork.parse("ij,kl->ijkl", [(3, 4), (5, 6)])
        text = build_plan(net, DESKTOP, "dp").explain()
        assert "[outer]" in text
        assert "guard" not in text  # outer steps never reach the kernel

    def test_explain_prints_each_steps_guard(self):
        # A dense 512-tile grid of 1954 x 1954 tasks is over the task guard.
        net = TensorNetwork.parse(
            "ij,jk->ik", [(10**6, 10), (10, 10**6)], nnz=[10**6, 10**6]
        )
        plan = build_plan(net, DESKTOP, "dp")
        assert plan.steps[0].guard == "dnf"
        assert "guard dnf" in plan.explain()
        assert "guard ok" in build_plan(chain_network(), DESKTOP, "dp").explain()

    def test_step_subscripts_property(self):
        plan = build_plan(chain_network(), DESKTOP, "left")
        assert plan.steps[0].subscripts == "ij,jk->ik"
