"""Static analysis for contraction requests, task graphs, and the code base.

Three passes, all pre-execution (nothing here allocates a workspace or
runs a kernel):

* :mod:`repro.staticcheck.expr_lint` — given subscripts (or linearized
  problem parameters), declared shapes/nnz and a machine model, predict
  the plan Algorithm 7 would pick and every guard outcome — including
  the paper's Table 3 ``DNF`` regime — as ``FSTC0xx`` diagnostics;
* :mod:`repro.staticcheck.ast_lint` — ``FSTC1xx`` source rules keeping
  the vectorized hot paths honest (no per-nonzero Python loops in
  kernels, :mod:`repro.errors` exception discipline, determinism,
  ``__all__`` declarations);
* :mod:`repro.staticcheck.graph_lint` — ``FSTC2xx`` hazard analysis of
  tile-task write sets (write-write conflicts, order-dependent
  reductions) before a schedule runs.

Configuration rules (``FSTC3xx``/``FSTC6xx``/``FSTC7xx``) live with the
configs they judge — :class:`repro.serve.ServiceConfig` and
:class:`repro.serve.ShardRouter` — and share only the code registry in
:mod:`repro.staticcheck.diagnostics`.

Only that registry is imported with the package: the lint passes load
on first access to one of their names, so a serving process that just
builds :class:`Diagnostic` records never imports them.

The CLI front end is ``python -m repro check``; see
``docs/staticcheck.md`` for the code catalogue.
"""

import importlib

from repro.staticcheck.diagnostics import (
    CODES,
    Diagnostic,
    diagnostics_to_json,
    has_errors,
    make_diagnostic,
    max_exit_status,
    render_diagnostics,
)
#: Public name -> the lint module that defines it (see __getattr__).
_LAZY = {
    **dict.fromkeys(("lint_file", "lint_source", "lint_tree"), "ast_lint"),
    **dict.fromkeys(("audit_case", "audit_registry", "case_problem"), "audit"),
    **dict.fromkeys(
        ("ExpressionReport", "PlanPrediction", "lint_expression",
         "lint_problem", "predict_plan"),
        "expr_lint",
    ),
    **dict.fromkeys(
        ("TileTask", "analyze_task_graph", "hazards_for_stats",
         "write_sets_for_pairs"),
        "graph_lint",
    ),
    "audit_code_registry": "registry_audit",
}


def __getattr__(name: str):
    """Import a lint pass on first access to one of its public names."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "CODES",
    "Diagnostic",
    "ExpressionReport",
    "PlanPrediction",
    "TileTask",
    "analyze_task_graph",
    "audit_case",
    "audit_code_registry",
    "audit_registry",
    "case_problem",
    "diagnostics_to_json",
    "has_errors",
    "hazards_for_stats",
    "lint_expression",
    "lint_file",
    "lint_problem",
    "lint_source",
    "lint_tree",
    "make_diagnostic",
    "max_exit_status",
    "predict_plan",
    "render_diagnostics",
    "write_sets_for_pairs",
]
