"""Semiring contractions: the (⊕, ⊗) generalization.

Sparse contraction over an arbitrary semiring replaces + with ⊕ and
* with ⊗ — the GraphBLAS view, where (min, +) gives shortest paths,
(max, *) gives most-reliable paths, and (or, and) gives reachability.
The paper's kernels assume (+, *); this module generalizes the CO
scheme to any semiring whose ⊕ is a NumPy ufunc, using the same
hash-join + grouped-cartesian machinery with a sort/``ufunc.reduceat``
accumulator (dense tiles hard-code +, so the semiring path uses the
reduction accumulator — correctness-first, still fully vectorized).

Example
-------
>>> from repro.core.semiring import MIN_PLUS, semiring_contract
>>> dists = semiring_contract(graph, graph, [(1, 0)], semiring=MIN_PLUS)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.core.plan import ContractionSpec, LinearizedOperand
from repro.errors import ConfigError
from repro.hashing.slice_table import SliceTable
from repro.tensors.coo import COOTensor
from repro.util.groups import group_boundaries, grouped_cartesian

__all__ = [
    "Semiring",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_PLUS",
    "MAX_TIMES",
    "OR_AND",
    "semiring_contract",
]


@dataclass(frozen=True)
class Semiring:
    """An algebraic semiring over float64 values.

    ``add`` must be a NumPy ufunc (its ``reduceat`` performs the
    accumulation); ``multiply`` any vectorized binary callable;
    ``add_identity`` the ⊕-identity (used only for empty reductions,
    which the kernel never produces).
    """

    name: str
    add: np.ufunc
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    add_identity: float

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Semiring({self.name})"


PLUS_TIMES = Semiring("plus_times", np.add, np.multiply, 0.0)
MIN_PLUS = Semiring("min_plus", np.minimum, np.add, float("inf"))
MAX_PLUS = Semiring("max_plus", np.maximum, np.add, float("-inf"))
MAX_TIMES = Semiring("max_times", np.maximum, np.multiply, float("-inf"))
OR_AND = Semiring(
    "or_and",
    np.logical_or,
    lambda a, b: np.logical_and(a != 0.0, b != 0.0).astype(np.float64),
    0.0,
)

_NAMED = {s.name: s for s in (PLUS_TIMES, MIN_PLUS, MAX_PLUS, MAX_TIMES, OR_AND)}


def semiring_contract(
    left: COOTensor,
    right: COOTensor,
    pairs: Sequence[tuple[int, int]],
    *,
    semiring: Semiring | str = PLUS_TIMES,
    counters: Counters | None = None,
    canonical: bool = True,
) -> COOTensor:
    """Contract two sparse tensors over a semiring.

    Semantics: ``O[l, r] = ⊕_c  L[l, c] ⊗ R[c, r]`` over the *stored*
    nonzeros — absent entries contribute nothing (they are ⊕-identity),
    which for (min, +) is the usual "missing edge = infinite distance"
    convention.  Input duplicates are ⊕-combined first.

    Mode semantics match :func:`repro.core.contraction.contract`.  The
    ⊕-reduction sorts on the output key ``l * R + r``, so the output is
    always canonical; ``canonical`` is kept for parity with ``contract``.
    """
    if isinstance(semiring, str):
        if semiring not in _NAMED:
            raise ConfigError(
                f"unknown semiring {semiring!r}; have {sorted(_NAMED)}"
            )
        semiring = _NAMED[semiring]
    counters = ensure_counters(counters)
    spec = ContractionSpec(left.shape, right.shape, pairs)
    left_op = _reduce_duplicates(spec.linearize_left(left), semiring, spec.C)
    right_op = _reduce_duplicates(spec.linearize_right(right), semiring, spec.C)

    hl = SliceTable(left_op.con, left_op.ext, left_op.values, counters=counters)
    hr = SliceTable(right_op.con, right_op.ext, right_op.values, counters=counters)
    keys_l = hl.keys()
    found, starts_r, counts_r = hr.query_batch(keys_l)  # counts the queries
    starts_l, counts_l = hl.spans_for_all_keys()
    sel = found
    ia, ib = grouped_cartesian(
        starts_l[sel], counts_l[sel], starts_r[sel], counts_r[sel]
    )
    l_payload, l_vals = hl.payload
    r_payload, r_vals = hr.payload
    counters.data_volume += int(counts_l[sel].sum() + counts_r[sel].sum())

    if ia.shape[0] == 0:
        return COOTensor.empty(spec.output_shape)
    out_keys = l_payload[ia] * np.int64(right_op.ext_extent) + r_payload[ib]
    contrib = semiring.multiply(l_vals[ia], r_vals[ib])
    counters.accum_updates += int(contrib.shape[0])

    order = np.argsort(out_keys, kind="stable")
    sorted_keys = out_keys[order]
    sorted_vals = np.asarray(contrib, dtype=np.float64)[order]
    uniq, offsets = group_boundaries(sorted_keys)
    sums = semiring.add.reduceat(sorted_vals, offsets[:-1])

    out = COOTensor(spec.lin_out.decode(uniq), np.asarray(sums, dtype=np.float64),
                    spec.output_shape, check=False)
    counters.output_nnz += out.nnz
    return out


def _reduce_duplicates(op, semiring: Semiring, con_extent: int):
    """⊕-combine duplicate (ext, con) entries of a linearized operand."""
    if op.nnz == 0 or semiring is PLUS_TIMES:
        return op.sum_duplicates()
    combined = op.ext * np.int64(op.con_extent) + op.con
    order = np.argsort(combined, kind="stable")
    skeys = combined[order]
    svals = op.values[order]
    uniq, offsets = group_boundaries(skeys)
    vals = semiring.add.reduceat(svals, offsets[:-1])
    return LinearizedOperand(
        ext=uniq // np.int64(op.con_extent),
        con=uniq % np.int64(op.con_extent),
        values=np.asarray(vals, dtype=np.float64),
        ext_extent=op.ext_extent,
        con_extent=op.con_extent,
    )
