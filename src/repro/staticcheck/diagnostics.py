"""Diagnostic records and the ``FSTC`` error-code registry.

Every finding the static checker produces — from the expression/plan
linter, the AST lint pass, or the task-graph hazard analysis — is a
:class:`Diagnostic` carrying a stable ``FSTC0xx``/``FSTC1xx``/``FSTC2xx``
code, a severity, a human-readable message, and a fix hint.  Codes are
stable API: tests, CI gates, and suppression pragmas refer to them, so
codes are never renumbered (retired codes stay reserved).

Code ranges
-----------
``FSTC0xx``
    Expression/plan lints: statically-knowable problems with a
    contraction request (shapes, subscripts, nnz, predicted plan).
``FSTC1xx``
    Source lints: AST rules over the ``repro`` code base itself.
``FSTC2xx``
    Task-graph hazards: conflicts detectable from tile-task write sets
    before execution.
``FSTC3xx``
    Service/shard configuration rules, raised or warned by
    :class:`repro.serve.ServiceConfig` and :class:`repro.serve.ShardRouter`.
``FSTC4xx``
    Backend-layer discipline: kernel code reaching around the
    :mod:`repro.backends` interface.
``FSTC5xx``
    Retired: optimizer-pass soundness.  Plan annotations are re-checked
    by the network executor at run time instead.
``FSTC6xx``
    Autotune knobs of a serving config that would burn serving latency
    or lose learned state.
``FSTC7xx``
    Streaming: the staleness knob of a serving config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "Diagnostic",
    "Severity",
    "CODES",
    "ERROR",
    "WARNING",
    "INFO",
    "make_diagnostic",
    "has_errors",
    "max_exit_status",
    "render_diagnostics",
    "diagnostics_to_json",
]

#: Severity levels, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"
INFO = "info"

Severity = str

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``location`` is free-form context: ``file.py:42`` for source lints,
    ``case NIPS_2 [desktop, dense]`` for plan lints, ``task 7 vs 12``
    for hazards.
    """

    code: str
    severity: Severity
    message: str
    hint: str = ""
    location: str = ""
    data: dict = field(default_factory=dict)

    def render(self) -> str:
        loc = f"{self.location}: " if self.location else ""
        tail = f"  [hint: {self.hint}]" if self.hint else ""
        return f"{loc}{self.code} {self.severity}: {self.message}{tail}"

    def to_json(self) -> dict:
        """JSON-friendly dict (stable field names; CI gates consume
        this via ``python -m repro check --json``)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }

    def with_location(self, location: str) -> "Diagnostic":
        return replace(self, location=location)


#: code -> (default severity, one-line title).  ``docs/staticcheck.md``
#: documents each with a minimal triggering example.
CODES: dict[str, tuple[Severity, str]] = {
    # --- expression/plan lints -------------------------------------------
    "FSTC001": (ERROR, "malformed einsum subscripts"),
    "FSTC002": (ERROR, "subscript arity does not match operand rank"),
    "FSTC003": (ERROR, "index used with conflicting extents"),
    "FSTC004": (ERROR, "non-positive mode extent"),
    "FSTC005": (ERROR, "nonzero count inconsistent with the shape"),
    "FSTC006": (WARNING, "index is implicitly summed out"),
    "FSTC007": (ERROR, "operand dtype unsupported or mismatched"),
    "FSTC008": (WARNING, "operands share no contraction index"),
    "FSTC010": (ERROR, "predicted DNF: tile-task grid exceeds the task guard"),
    "FSTC011": (ERROR, "predicted workspace overflow: dense tile exceeds the cell guard"),
    "FSTC012": (WARNING, "degenerate tile size"),
    "FSTC013": (WARNING, "dense accumulator on a predicted-sparse output"),
    "FSTC014": (WARNING, "sparse accumulator on a predicted-dense output"),
    "FSTC015": (INFO, "predicted output density is zero"),
    # --- network lints ---------------------------------------------------
    "FSTC016": (ERROR, "index appears in more than two operands"),
    "FSTC017": (INFO, "network has disconnected components (outer products)"),
    "FSTC018": (WARNING, "predicted intermediate blowup along the planned path"),
    # --- AST source lints ------------------------------------------------
    "FSTC101": (ERROR, "per-nonzero Python loop in a kernel function"),
    "FSTC102": (ERROR, "bare builtin exception raised instead of a repro.errors subclass"),
    "FSTC103": (ERROR, "nondeterministic call inside a kernel module"),
    "FSTC104": (ERROR, "public module does not declare __all__"),
    "FSTC105": (ERROR, "diagnostic registry and docs/staticcheck.md disagree"),
    # --- task-graph hazards ----------------------------------------------
    "FSTC201": (ERROR, "write-write conflict on a shared accumulator tile"),
    "FSTC202": (WARNING, "order-dependent floating-point reduction"),
    "FSTC203": (INFO, "task grid smaller than the worker count"),
    # --- service configuration (FSTC302 and FSTC305 are retired) ---------
    "FSTC301": (ERROR, "service admission queue is unbounded or undrainable"),
    "FSTC303": (WARNING, "worker pool oversubscribes the machine's cores"),
    "FSTC304": (WARNING, "shard processes oversubscribe the host's CPUs"),
    # --- backend-layer discipline -----------------------------------------
    "FSTC401": (ERROR, "direct NumPy kernel call outside the backend layer"),
    # --- autotune configuration ------------------------------------------
    "FSTC601": (ERROR, "autotune exploration rate outside the sane band"),
    "FSTC602": (WARNING, "learned autotune state is not persisted"),
    "FSTC603": (ERROR, "champion promotion without a positive margin"),
    "FSTC604": (WARNING, "autotune trials floor below two samples"),
    # --- streaming (FSTC701, FSTC702 and FSTC704 are retired) ------------
    "FSTC703": (WARNING, "staleness threshold misprices incremental patching"),
    # --- optimizer-pass soundness: FSTC501-FSTC506 are retired ------------
}


def make_diagnostic(
    code: str,
    message: str,
    *,
    hint: str = "",
    location: str = "",
    severity: Severity | None = None,
    data: dict | None = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from the registry."""
    from repro.errors import StaticCheckError

    if code not in CODES:
        raise StaticCheckError(f"unknown diagnostic code {code!r}")
    sev = severity if severity is not None else CODES[code][0]
    if sev not in _SEVERITY_ORDER:
        raise StaticCheckError(f"unknown severity {sev!r}")
    return Diagnostic(
        code=code, severity=sev, message=message, hint=hint,
        location=location, data=dict(data or {}),
    )


def has_errors(diagnostics) -> bool:
    """True when any diagnostic carries ``error`` severity."""
    return any(d.severity == ERROR for d in diagnostics)


def max_exit_status(diagnostics) -> int:
    """CLI convention: 1 when errors are present, else 0."""
    return 1 if has_errors(diagnostics) else 0


def diagnostics_to_json(diagnostics) -> dict:
    """The ``--json`` document: sorted findings plus severity tallies."""
    ordered = sorted(
        diagnostics,
        key=lambda d: (_SEVERITY_ORDER[d.severity], d.code, d.location),
    )
    return {
        "findings": [d.to_json() for d in ordered],
        "errors": sum(1 for d in ordered if d.severity == ERROR),
        "warnings": sum(1 for d in ordered if d.severity == WARNING),
    }


def render_diagnostics(diagnostics, *, verbose: bool = True) -> str:
    """Sort (errors first, then by code/location) and format findings."""
    ordered = sorted(
        diagnostics,
        key=lambda d: (_SEVERITY_ORDER[d.severity], d.code, d.location),
    )
    lines = [d.render() for d in ordered]
    if verbose:
        n_err = sum(1 for d in ordered if d.severity == ERROR)
        n_warn = sum(1 for d in ordered if d.severity == WARNING)
        n_info = len(ordered) - n_err - n_warn
        lines.append(
            f"{len(ordered)} finding(s): {n_err} error(s), "
            f"{n_warn} warning(s), {n_info} info"
        )
    return "\n".join(lines)
