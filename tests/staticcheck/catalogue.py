"""The ``FSTC`` configuration codes: what the source emits and what
``docs/serve.md`` catalogues.

A config check raises ``ConfigError("FSTC301: ...")`` or warns
``ConfigWarning("FSTC303: ...")``; the code is the message prefix.
:func:`source_codes` reads every such prefix from ``src/repro`` and
:func:`audit_catalogue` holds the catalogue table against it.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
REPO = SRC.parent.parent

_PREFIX = re.compile(r"^(FSTC\d{3}): ")
_ROW = re.compile(r"^\|\s*`(FSTC\d{3})`\s*\|\s*(raises|warns)\s*\|", re.MULTILINE)


def _message_prefix(node) -> str | None:
    """The ``FSTCnnn`` a string or f-string literal starts with."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        match = _PREFIX.match(node.value)
        return match.group(1) if match else None
    return None


def source_codes(root: Path = SRC) -> dict[str, str]:
    """``{code: "raises"|"warns"}`` for each message prefix under ``root``.

    A prefix inside a ``ConfigError(...)`` call raises; any other one is
    a warning message.
    """
    codes: dict[str, str] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raised = {
            id(sub)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "ConfigError"
            for arg in node.args
            for sub in ast.walk(arg)
        }
        for node in ast.walk(tree):
            code = _message_prefix(node)
            if code:
                codes.setdefault(code, "raises" if id(node) in raised else "warns")
    return codes


def documented_codes(text: str) -> dict[str, str]:
    """``{code: kind}`` of a catalogue table's rows."""
    return {code: kind for code, kind in _ROW.findall(text)}


def duplicate_codes(text: str) -> dict[str, int]:
    """Codes with more than one catalogue row, and their row counts."""
    counts = Counter(code for code, _ in _ROW.findall(text))
    return {code: n for code, n in counts.items() if n > 1}


def find_docs(root: Path = REPO) -> Path | None:
    """``docs/serve.md`` under ``root``, or ``None`` outside a checkout."""
    path = root / "docs" / "serve.md"
    return path if path.is_file() else None


def render_catalogue(codes: dict[str, str]) -> str:
    """A catalogue table with one row per code."""
    rows = [f"| `{code}` | {kind} | x | y |" for code, kind in sorted(codes.items())]
    return "| Code | Kind | Checked by | Fires when |\n|--|--|--|--|\n" + "\n".join(rows) + "\n"


def audit_catalogue(text: str, codes: dict[str, str] | None = None) -> list[str]:
    """Disagreements between a catalogue and the source's codes."""
    codes = source_codes() if codes is None else codes
    documented = documented_codes(text)
    problems = [
        f"{code} has {n} catalogue entries"
        for code, n in sorted(duplicate_codes(text).items())
    ]
    for code in sorted(set(documented) | set(codes)):
        if code not in codes:
            problems.append(f"{code} is documented but no source message emits it")
        elif code not in documented:
            problems.append(f"{code} {codes[code]} in the source but is not documented")
        elif documented[code] != codes[code]:
            problems.append(
                f"{code} {codes[code]} in the source but is documented as "
                f"{documented[code]!r}"
            )
    return problems
