"""The configuration-code catalogue in ``docs/serve.md`` against the
codes the source emits (the message prefixes of its ``ConfigError``s
and ``ConfigWarning``s)."""

from tests.staticcheck.catalogue import (
    audit_catalogue,
    documented_codes,
    duplicate_codes,
    find_docs,
    render_catalogue,
    source_codes,
)


class TestCleanCatalogue:
    def test_full_catalogue_is_clean(self):
        codes = source_codes()
        assert audit_catalogue(render_catalogue(codes), codes) == []

    def test_repo_docs_are_clean(self):
        docs = find_docs()
        assert docs is not None
        assert audit_catalogue(docs.read_text(encoding="utf-8")) == []


class TestDrift:
    def test_unregistered_documented_code(self):
        codes = source_codes()
        text = render_catalogue(codes) + "| `FSTC999` | raises | x | ghost |\n"
        assert audit_catalogue(text, codes) == [
            "FSTC999 is documented but no source message emits it"
        ]

    def test_undocumented_registered_code(self):
        codes = source_codes()
        shown = {c: k for c, k in codes.items() if c != "FSTC304"}
        assert audit_catalogue(render_catalogue(shown), codes) == [
            "FSTC304 warns in the source but is not documented"
        ]

    def test_severity_mismatch(self):
        codes = source_codes()
        text = render_catalogue(dict(codes, FSTC303="raises"))
        assert audit_catalogue(text, codes) == [
            "FSTC303 warns in the source but is documented as 'raises'"
        ]

    def test_duplicate_entry(self):
        codes = source_codes()
        text = render_catalogue(codes) + "| `FSTC301` | raises | x | again |\n"
        assert audit_catalogue(text, codes) == ["FSTC301 has 2 catalogue entries"]


class TestParsers:
    def test_documented_codes_parses_severities(self):
        text = "| `FSTC301` | raises | a | b |\n| `FSTC303` | warns | c | d |\n"
        assert documented_codes(text) == {
            "FSTC301": "raises", "FSTC303": "warns",
        }

    def test_duplicate_codes_counts(self):
        text = (
            "| `FSTC301` | raises | a | b |\n"
            "| `FSTC301` | raises | a | again |\n"
            "| `FSTC303` | warns | c | d |\n"
        )
        assert duplicate_codes(text) == {"FSTC301": 2}

    def test_find_docs_missing_layout(self, tmp_path):
        assert find_docs(tmp_path / "nowhere") is None
        assert find_docs() is not None  # the repository layout exists
