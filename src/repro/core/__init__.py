"""The paper's primary contribution: FaSTCC.

* :mod:`repro.core.plan` — index classification and linearization
  (Section 2.1's preprocessing), plus the executed :class:`Plan` record.
* :mod:`repro.core.model` — the probabilistic dense/sparse accumulator
  and tile-size model (Section 5, Algorithm 7).
* :mod:`repro.core.accumulators` — dense and sparse output tiles
  (Section 4.2).
* :mod:`repro.core.guards` — the task and dense-cell guards behind
  Table 3's DNF, and the verdict plans report before running.
* :mod:`repro.core.tiled_co` — the 2-D tiled contraction-index-outer
  kernel (Algorithms 5/6).
* :mod:`repro.core.contraction` — the public ``contract`` /
  ``self_contract`` API (COO in, COO out).
"""

from repro.core.contraction import contract, self_contract
from repro.core.einsum import contraction_path, einsum
from repro.core.expression import contract_expression
from repro.core.guards import GuardVerdict, guard_verdict, plan_guard
from repro.core.model import AccumulatorChoice, choose_plan
from repro.core.plan import ContractionSpec, LinearizedOperand, Plan
from repro.core.semiring import Semiring, semiring_contract

__all__ = [
    "contract",
    "self_contract",
    "einsum",
    "contraction_path",
    "contract_expression",
    "semiring_contract",
    "Semiring",
    "ContractionSpec",
    "LinearizedOperand",
    "Plan",
    "AccumulatorChoice",
    "choose_plan",
    "GuardVerdict",
    "guard_verdict",
    "plan_guard",
]
