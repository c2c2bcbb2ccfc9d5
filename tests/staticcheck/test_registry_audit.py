"""Unit tests for the FSTC code-registry/docs consistency audit."""

from repro.staticcheck.diagnostics import CODES
from repro.staticcheck.registry_audit import (
    audit_code_registry,
    documented_codes,
    duplicate_codes,
    find_docs,
)


def catalogue_text(overrides=None, extra="", skip=()):
    """Render a synthetic catalogue covering the live registry."""
    overrides = overrides or {}
    lines = []
    for code, (severity, title) in sorted(CODES.items()):
        if code in skip:
            continue
        sev = overrides.get(code, severity)
        lines.append(f"**{code}** ({sev}) — {title}.")
    return "\n\n".join(lines) + ("\n\n" + extra if extra else "\n")


def write_docs(tmp_path, text):
    path = tmp_path / "staticcheck.md"
    path.write_text(text)
    return path


class TestCleanCatalogue:
    def test_full_catalogue_is_clean(self, tmp_path):
        docs = write_docs(tmp_path, catalogue_text())
        assert audit_code_registry(docs) == []

    def test_repo_docs_are_clean(self):
        docs = find_docs()
        assert docs is not None
        assert audit_code_registry(docs) == []


class TestDrift:
    def test_unregistered_documented_code(self, tmp_path):
        docs = write_docs(
            tmp_path, catalogue_text(extra="**FSTC999** (error) — ghost.")
        )
        diags = audit_code_registry(docs)
        assert len(diags) == 1
        assert diags[0].code == "FSTC105"
        assert "FSTC999" in diags[0].message
        assert "missing from the registry" in diags[0].message

    def test_undocumented_registered_code(self, tmp_path):
        docs = write_docs(tmp_path, catalogue_text(skip=("FSTC401",)))
        diags = audit_code_registry(docs)
        assert len(diags) == 1
        assert "FSTC401" in diags[0].message
        assert "not documented" in diags[0].message

    def test_severity_mismatch(self, tmp_path):
        docs = write_docs(
            tmp_path, catalogue_text(overrides={"FSTC202": "error"})
        )
        diags = audit_code_registry(docs)
        assert len(diags) == 1
        assert "FSTC202" in diags[0].message
        assert "documented as 'error'" in diags[0].message

    def test_duplicate_entry(self, tmp_path):
        docs = write_docs(
            tmp_path,
            catalogue_text(extra="**FSTC401** (error) — duplicate entry."),
        )
        diags = audit_code_registry(docs)
        assert len(diags) == 1
        assert "FSTC401" in diags[0].message
        assert "2 catalogue entries" in diags[0].message


class TestParsers:
    def test_documented_codes_parses_severities(self):
        text = "**FSTC001** (error) — a.\n**FSTC006** (warning) — b.\n"
        assert documented_codes(text) == {
            "FSTC001": "error", "FSTC006": "warning",
        }

    def test_duplicate_codes_counts(self):
        text = (
            "**FSTC001** (error) — a.\n"
            "**FSTC001** (error) — again.\n"
            "**FSTC006** (warning) — b.\n"
        )
        assert duplicate_codes(text) == {"FSTC001": 2}

    def test_find_docs_missing_layout(self, tmp_path):
        assert find_docs(tmp_path / "nowhere") is None
        assert audit_code_registry(None) is not None  # repo layout exists
