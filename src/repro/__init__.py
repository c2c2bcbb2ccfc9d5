"""repro — a full reproduction of FaSTCC (SC '25).

FaSTCC: Fast Sparse Tensor Contractions on CPUs.  This package
implements the paper's 2-D tiled contraction-index-outer contraction
scheme with model-selected dense/sparse tile accumulators, every
substrate it depends on (COO/CSF formats, open-addressing and chaining
hash tables, a dynamic task queue), the TACO-style and Sparta-style
baselines it is evaluated against, and the workload generators and
machine models behind the paper's evaluation.

Quick start::

    from repro import COOTensor, contract
    from repro.data import random_coo

    a = random_coo((100, 80, 60), nnz=5_000, seed=1)
    b = random_coo((60, 80, 50), nnz=4_000, seed=2)
    out = contract(a, b, pairs=[(2, 0), (1, 1)])   # sum over two modes

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.core.contraction import contract, self_contract
from repro.core.einsum import contraction_path, einsum
from repro.core.expression import contract_expression
from repro.core.model import choose_plan, estimate_output_density
from repro.core.plan import ContractionSpec, LinearizedOperand, Plan
from repro.errors import (
    CapacityError,
    FormatError,
    PlanError,
    ReproError,
    ShapeError,
    WorkspaceLimitError,
)
from repro.machine.specs import DESKTOP, SERVER, MachineSpec
from repro.network import (
    NetworkExecutor,
    NetworkPlan,
    OperandMeta,
    TensorNetwork,
    contract_network,
    plan_network,
)
from repro.runtime import BatchExecutor, ContractionRuntime, PlanCache
from repro.serve import ContractionService, Request, Response, ServiceConfig
from repro.tensors.coo import COOTensor
from repro.tensors.csf import CSFTensor
from repro.analysis.counters import Counters

__version__ = "1.2.0"

__all__ = [
    "contract",
    "self_contract",
    "einsum",
    "contraction_path",
    "contract_expression",
    "choose_plan",
    "estimate_output_density",
    "ContractionSpec",
    "LinearizedOperand",
    "Plan",
    "COOTensor",
    "CSFTensor",
    "Counters",
    "ContractionRuntime",
    "BatchExecutor",
    "PlanCache",
    "ContractionService",
    "ServiceConfig",
    "Request",
    "Response",
    "NetworkExecutor",
    "NetworkPlan",
    "OperandMeta",
    "TensorNetwork",
    "contract_network",
    "plan_network",
    "MachineSpec",
    "DESKTOP",
    "SERVER",
    "ReproError",
    "ShapeError",
    "FormatError",
    "PlanError",
    "CapacityError",
    "WorkspaceLimitError",
    "__version__",
]
