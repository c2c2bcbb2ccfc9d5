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
  reductions) before a schedule runs;
* :mod:`repro.staticcheck.pass_lint` — ``FSTC5xx`` soundness checks of
  optimizer-pass plan rewrites against re-derived dataflow facts (the
  :class:`~repro.network.passes.PassVerifier`'s engine).

Configuration rules (``FSTC3xx``/``FSTC6xx``/``FSTC7xx``) live with the
configs they judge — :class:`repro.serve.ServiceConfig`,
:class:`repro.serve.ShardRouter`, the streaming tracker — and share
only the code registry in :mod:`repro.staticcheck.diagnostics`.

The CLI front end is ``python -m repro check``; see
``docs/staticcheck.md`` for the code catalogue.
"""

from repro.staticcheck.ast_lint import lint_file, lint_source, lint_tree
from repro.staticcheck.audit import audit_case, audit_registry, case_problem
from repro.staticcheck.diagnostics import (
    CODES,
    Diagnostic,
    diagnostics_to_json,
    has_errors,
    make_diagnostic,
    max_exit_status,
    render_diagnostics,
)
from repro.staticcheck.expr_lint import (
    ExpressionReport,
    PlanPrediction,
    lint_expression,
    lint_problem,
    predict_plan,
)
from repro.staticcheck.graph_lint import (
    TileTask,
    analyze_task_graph,
    assert_disjoint_writes,
    hazards_for_stats,
    write_sets_for_pairs,
)
from repro.staticcheck.pass_lint import (
    lint_plan_annotations,
    self_test_passes,
    verify_rewrite,
)
from repro.staticcheck.registry_audit import audit_code_registry

__all__ = [
    "CODES",
    "Diagnostic",
    "ExpressionReport",
    "PlanPrediction",
    "TileTask",
    "analyze_task_graph",
    "assert_disjoint_writes",
    "audit_case",
    "audit_code_registry",
    "audit_registry",
    "case_problem",
    "diagnostics_to_json",
    "has_errors",
    "hazards_for_stats",
    "lint_expression",
    "lint_file",
    "lint_plan_annotations",
    "lint_problem",
    "lint_source",
    "lint_tree",
    "make_diagnostic",
    "max_exit_status",
    "predict_plan",
    "render_diagnostics",
    "self_test_passes",
    "verify_rewrite",
    "write_sets_for_pairs",
]
