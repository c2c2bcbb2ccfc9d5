"""Sparsity-aware tensor-network contraction planning and execution.

The subsystem splits multi-operand einsum into five layers:

* :mod:`repro.network.ir` — hypergraph IR (:class:`TensorNetwork`,
  :class:`OperandMeta`) parsed from subscripts plus shape/nnz metadata;
* :mod:`repro.network.optimize` — path optimizers (``left``, ``greedy``,
  ``dp``, ``sparsity``, ``auto``) producing a :class:`NetworkPlan`;
* :mod:`repro.network.plan` — the serializable, explainable plan and its
  network-level :class:`NetworkSignature`;
* :mod:`repro.network.executor` — plan-cached execution through the
  adaptive :class:`~repro.runtime.ContractionRuntime`;
* :mod:`repro.network.dataflow` — SSA-style :class:`PlanGraph` and
  :func:`annotate_plan`, which marks CSE candidates, dead steps and
  hoistable table builds in one walk.
"""

from repro.network.dataflow import PlanGraph, annotate_plan, expression_key
from repro.network.executor import (
    NetworkExecutor,
    NetworkReport,
    PreparedNetwork,
    StepResultCache,
    contract_network,
    default_executor,
    outer_product,
    sum_out_modes,
)
from repro.network.ir import (
    OperandMeta,
    TensorNetwork,
    parse_subscripts,
    subscript_counts,
)
from repro.network.optimize import (
    AUTO_DP_LIMIT,
    DP_OPERAND_LIMIT,
    OPTIMIZERS,
    build_plan,
    optimize_path,
    plan_network,
    resolve_optimizer,
)
from repro.network.plan import NetworkPlan, NetworkSignature, PlanStep

__all__ = [
    "AUTO_DP_LIMIT",
    "DP_OPERAND_LIMIT",
    "NetworkExecutor",
    "NetworkPlan",
    "NetworkReport",
    "NetworkSignature",
    "OPTIMIZERS",
    "OperandMeta",
    "PlanGraph",
    "PlanStep",
    "PreparedNetwork",
    "StepResultCache",
    "TensorNetwork",
    "annotate_plan",
    "build_plan",
    "contract_network",
    "default_executor",
    "expression_key",
    "optimize_path",
    "outer_product",
    "parse_subscripts",
    "plan_network",
    "resolve_optimizer",
    "subscript_counts",
    "sum_out_modes",
]
