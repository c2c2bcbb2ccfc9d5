"""The verdicts the command line prints before and instead of running.

``repro plan`` ends with the guard verdict, ``repro network --explain``
and ``--json`` carry one per contract step, and ``repro run`` reports a
refused contraction as the paper's ``DNF``.
"""

import json

import pytest

from repro.__main__ import main
from repro.errors import ShapeError
from repro.network.plan import NetworkPlan
from tests.staticcheck.test_ast_lint import HOT_PACKAGES, KERNEL_MODULES, ROOT
from tests.staticcheck.test_parity import CASES, GOLDEN


def network_json(expr, shapes, nnz, capsys):
    assert main(["network", expr, "--shapes", shapes, "--nnz", nnz,
                 "--json", "--explain"]) == 0
    return json.loads(capsys.readouterr().out)


class TestSelfLint:
    def test_self_is_clean(self):
        # The source rules name real files: renaming a kernel module or a
        # hot package cannot switch a rule off silently.
        for module in KERNEL_MODULES:
            assert (ROOT / f"{module}.py").is_file(), module
        for package in HOT_PACKAGES:
            assert (ROOT / package / "__init__.py").is_file(), package


class TestJsonOutput:
    def test_self_json_document(self, capsys):
        doc = network_json("ij,jk,kl->il", "20x30,30x25,25x10", "100,90,40", capsys)
        plan = NetworkPlan.from_json(doc)
        assert [s.guard for s in plan.steps] == ["ok", "ok"]
        assert json.loads(json.dumps(plan.to_json())) == doc

    def test_audit_json_carries_verdicts(self, capsys):
        # A dense 1e6 x 1e6 output grid overflows the task guard.
        doc = network_json(
            "ij,jk->ik", "1000000x10,10x1000000", "1000000,1000000", capsys
        )
        assert [s["guard"] for s in doc["steps"]] == ["dnf"]

    def test_expr_json_carries_verdict(self, capsys):
        doc = network_json("ij,jk->ik", "100x200,200x50", "500,400", capsys)
        assert [s["guard"] for s in doc["steps"]] == ["ok"]


class TestRegistryAudit:
    def test_nips2_dense_dnf_flagged(self, capsys):
        status = main(["run", "NIPS_2", "--accumulator", "dense"])
        out = capsys.readouterr().out
        assert status == 2
        assert "case NIPS_2: DNF" in out
        assert "exceeds the task guard" in out

    def test_auto_column_is_clean(self, capsys):
        assert main(["run", "NIPS_2", "--accumulator", "auto"]) == 0
        assert "DNF" not in capsys.readouterr().out

    def test_single_machine_selector(self, capsys):
        status = main(
            ["run", "NIPS_2", "--machine", "server", "--accumulator", "dense"]
        )
        assert status == 2
        assert "case NIPS_2: DNF" in capsys.readouterr().out

    def test_hazards_mode(self, capsys):
        from repro import contract
        from repro.data.registry import get_case
        from repro.machine.specs import DESKTOP

        left, right, pairs = get_case("uber_02").load()
        _, stats = contract(left, right, pairs, machine=DESKTOP,
                            return_stats=True)
        assert len(stats.task_pairs) > 1
        assert len(set(stats.task_pairs)) == len(stats.task_pairs)


class TestExpressionMode:
    def test_valid_expression(self, capsys):
        status = main(["network", "ij,jk->ik", "--shapes", "100x200,200x50",
                       "--nnz", "500,400", "--explain"])
        out = capsys.readouterr().out
        assert status == 0
        assert "network plan: ij,jk->ik" in out
        assert "guard ok" in out

    def test_extent_conflict_fails(self):
        with pytest.raises(ShapeError, match="conflicting extents 20 and 19"):
            main(["network", "ij,jk->ik", "--shapes", "10x20,19x5"])

    def test_expr_requires_shapes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["network", "ij,jk->ik"])
        assert exc.value.code == 2

    def test_forced_dense_antipattern(self, capsys):
        # An ultra-sparse output: Algorithm 7 never picks dense tiles.
        assert main(["plan", "--L", "100000", "--R", "100000", "--C", "1000",
                     "--nnz-l", "2000", "--nnz-r", "2000"]) == 0
        out = capsys.readouterr().out
        assert "decision: sparse accumulator" in out
        assert "guard verdict: ok" in out


class TestTable3Reproduction:
    """``repro plan`` on every registry case's problem parameters: the
    auto column is clean on both machines, so Table 3's only DNF is the
    forced-dense NIPS mode-2 run."""

    def test_only_nips2_dense_errors(self, capsys):
        for name in CASES:
            p = GOLDEN[name]["problem"]
            for machine in ("desktop", "server"):
                assert main([
                    "plan", "--L", str(p["L"]), "--R", str(p["R"]),
                    "--C", str(p["C"]), "--nnz-l", str(p["nnz_l"]),
                    "--nnz-r", str(p["nnz_r"]), "--machine", machine,
                ]) == 0
                out = capsys.readouterr().out
                assert "guard verdict: ok" in out, (name, machine)
