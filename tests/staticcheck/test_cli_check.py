"""End-to-end tests of ``python -m repro check``."""

from repro.__main__ import main


class TestSelfLint:
    def test_self_is_clean(self, capsys):
        assert main(["check", "--self"]) == 0
        out = capsys.readouterr().out
        assert "no findings" in out


class TestJsonOutput:
    def test_self_json_document(self, capsys):
        import json

        assert main(["check", "--self", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["errors"] == 0
        assert isinstance(doc["findings"], list)

    def test_audit_json_carries_verdicts(self, capsys):
        import json

        status = main(["check", "NIPS_2", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert status == 1
        assert doc["errors"] >= 1
        assert any(f["code"] == "FSTC010" for f in doc["findings"])
        assert any(v == "dnf" for v in doc["verdicts"].values())

    def test_expr_json_carries_verdict(self, capsys):
        import json

        status = main(
            ["check", "--expr", "ij,jk->ik",
             "--shapes", "100x200,200x50", "--nnz", "500,400", "--json"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert status == 0
        assert "verdict" in doc


class TestRegistryAudit:
    def test_nips2_dense_dnf_flagged(self, capsys):
        status = main(["check", "NIPS_2"])
        out = capsys.readouterr().out
        assert status == 1
        assert "FSTC010" in out
        assert "DNF" in out

    def test_auto_column_is_clean(self, capsys):
        assert main(["check", "NIPS_2", "--accumulator", "auto"]) == 0

    def test_single_machine_selector(self, capsys):
        status = main(
            ["check", "NIPS_2", "--machine", "desktop",
             "--accumulator", "dense"]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "server" not in out

    def test_hazards_mode(self, capsys):
        status = main(
            ["check", "uber_02", "--machine", "desktop",
             "--accumulator", "auto", "--hazards"]
        )
        assert status == 0


class TestExpressionMode:
    def test_valid_expression(self, capsys):
        status = main(
            ["check", "--expr", "ij,jk->ik",
             "--shapes", "100x200,200x50", "--nnz", "500,400"]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "predicted plan" in out
        assert "verdict: ok" in out

    def test_extent_conflict_fails(self, capsys):
        status = main(
            ["check", "--expr", "ij,jk->ik", "--shapes", "10x20,19x5"]
        )
        out = capsys.readouterr().out
        assert status == 1
        assert "FSTC003" in out

    def test_expr_requires_shapes(self, capsys):
        assert main(["check", "--expr", "ij,jk->ik"]) == 2

    def test_forced_dense_antipattern(self, capsys):
        status = main(
            ["check", "--expr", "ij,jk->ik",
             "--shapes", "100000x1000,1000x100000",
             "--nnz", "2000,2000", "--accumulator", "dense"]
        )
        out = capsys.readouterr().out
        assert "FSTC013" in out


class TestTable3Reproduction:
    """The audit reproduces Table 3's DNF cell statically: the only
    error-severity findings in the whole registry audit are the NIPS
    mode-2 forced-dense columns."""

    def test_only_nips2_dense_errors(self, capsys):
        status = main(["check"])
        out = capsys.readouterr().out
        assert status == 1
        error_lines = [
            line for line in out.splitlines()
            if " error: " in line and "FSTC" in line
        ]
        assert error_lines, "expected FSTC error findings"
        for line in error_lines:
            assert "NIPS_2 " in line or "NIPS_2[" in line or \
                "case NIPS_2" in line
            assert "dense" in line
