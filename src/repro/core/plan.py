"""Contraction specification, linearized operands, and execution plans.

Section 2.1 of the paper: tensor indices split into contraction indices,
external-left, and external-right; each group is linearized to a single
index as preprocessing, reducing every contraction to
``O[l, r] = sum_c L[l, c] * R[c, r]``; the inverse delinearization is
applied to the output as postprocessing.  Both directions live here, and
both are charged to measured execution time by the benchmark harnesses,
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import PlanError, ShapeError
from repro.tensors.coo import COOTensor
from repro.tensors.linearize import ModeLinearizer
from repro.util.arrays import as_index_array, as_value_array
from repro.util.groups import group_boundaries, segment_sum

__all__ = ["ContractionSpec", "LinearizedOperand", "Plan"]


@dataclass
class LinearizedOperand:
    """One input tensor reduced to matrix form.

    ``ext`` and ``con`` are the linearized external and contraction
    indices of every nonzero; ``values`` the numeric values.  For the
    left operand this is ``L[l, c]``, for the right ``R[c, r]``.
    """

    ext: np.ndarray
    con: np.ndarray
    values: np.ndarray
    ext_extent: int
    con_extent: int

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        """Matrix density ``nnz / (ext_extent * con_extent)``."""
        denom = self.ext_extent * self.con_extent
        return self.nnz / denom if denom else 0.0

    def sum_duplicates(self) -> "LinearizedOperand":
        """Combine duplicate ``(ext, con)`` entries by summation."""
        if self.nnz == 0:
            return self
        combined = self.ext * np.int64(self.con_extent) + self.con
        uniq, sums = segment_sum(combined, self.values)
        return LinearizedOperand(
            ext=uniq // np.int64(self.con_extent),
            con=uniq % np.int64(self.con_extent),
            values=sums,
            ext_extent=self.ext_extent,
            con_extent=self.con_extent,
        )


def _counting_sort(
    keys: np.ndarray, values: np.ndarray, cells: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Sort unique ``keys`` in ``[0, cells)`` with their ``values`` by
    marking and scanning the cells; ``None`` if any key repeats."""
    hit = np.zeros(cells, dtype=bool)
    hit[keys] = True
    present = np.flatnonzero(hit)
    if present.size != keys.size:
        return None
    dense = np.empty(cells, dtype=values.dtype)
    dense[keys] = values
    return present, dense[present]


class ContractionSpec:
    """Classifies and linearizes the modes of a contraction.

    Parameters
    ----------
    left_shape, right_shape:
        Mode extents of the two operands.
    pairs:
        ``(left_mode, right_mode)`` contraction pairs; paired extents
        must match.  The output modes are the remaining left modes in
        order, then the remaining right modes in order.
    """

    def __init__(
        self,
        left_shape: Sequence[int],
        right_shape: Sequence[int],
        pairs: Sequence[tuple[int, int]],
    ):
        self.left_shape = tuple(int(s) for s in left_shape)
        self.right_shape = tuple(int(s) for s in right_shape)
        self.pairs = tuple((int(a), int(b)) for a, b in pairs)
        if not self.pairs:
            raise PlanError("at least one contraction pair is required")

        l_contracted = [a for a, _ in self.pairs]
        r_contracted = [b for _, b in self.pairs]
        if len(set(l_contracted)) != len(l_contracted):
            raise PlanError(f"left modes repeated in pairs: {self.pairs}")
        if len(set(r_contracted)) != len(r_contracted):
            raise PlanError(f"right modes repeated in pairs: {self.pairs}")
        for a, b in self.pairs:
            if not 0 <= a < len(self.left_shape):
                raise PlanError(f"left mode {a} out of range")
            if not 0 <= b < len(self.right_shape):
                raise PlanError(f"right mode {b} out of range")
            if self.left_shape[a] != self.right_shape[b]:
                raise ShapeError(
                    f"contracted extents differ: left mode {a} is "
                    f"{self.left_shape[a]}, right mode {b} is {self.right_shape[b]}"
                )

        self.left_external = tuple(
            m for m in range(len(self.left_shape)) if m not in set(l_contracted)
        )
        self.right_external = tuple(
            m for m in range(len(self.right_shape)) if m not in set(r_contracted)
        )
        self.lin_l = ModeLinearizer([self.left_shape[m] for m in self.left_external])
        self.lin_r = ModeLinearizer([self.right_shape[m] for m in self.right_external])
        self.lin_c = ModeLinearizer([self.left_shape[a] for a, _ in self.pairs])
        self.output_shape = tuple(self.left_shape[m] for m in self.left_external) + tuple(
            self.right_shape[m] for m in self.right_external
        )
        self.lin_out = ModeLinearizer(self.output_shape)

    # ------------------------------------------------------------------

    @property
    def L(self) -> int:
        """Extent of the linearized left external index space."""
        return self.lin_l.size

    @property
    def R(self) -> int:
        """Extent of the linearized right external index space."""
        return self.lin_r.size

    @property
    def C(self) -> int:
        """Extent of the linearized contraction index space."""
        return self.lin_c.size

    def linearize_left(self, tensor: COOTensor) -> LinearizedOperand:
        """Reduce the left operand to ``L[l, c]`` matrix form."""
        if tensor.shape != self.left_shape:
            raise ShapeError(
                f"left tensor shape {tensor.shape} != spec {self.left_shape}"
            )
        ext = self.lin_l.encode(tensor.coords[list(self.left_external), :])
        con = self.lin_c.encode(tensor.coords[[a for a, _ in self.pairs], :])
        return LinearizedOperand(ext, con, tensor.values, self.L, self.C)

    def linearize_right(self, tensor: COOTensor) -> LinearizedOperand:
        """Reduce the right operand to ``R[c, r]`` matrix form."""
        if tensor.shape != self.right_shape:
            raise ShapeError(
                f"right tensor shape {tensor.shape} != spec {self.right_shape}"
            )
        ext = self.lin_r.encode(tensor.coords[list(self.right_external), :])
        con = self.lin_c.encode(tensor.coords[[b for _, b in self.pairs], :])
        return LinearizedOperand(ext, con, tensor.values, self.R, self.C)

    def output_keys(self, l_idx: np.ndarray, r_idx: np.ndarray) -> np.ndarray:
        """``l * R + r``: the row-major linear index over ``output_shape``
        (the output modes are the left externals, then the right ones)."""
        return as_index_array(l_idx) * np.int64(self.R) + as_index_array(r_idx)

    def delinearize_output(
        self, l_idx: np.ndarray, r_idx: np.ndarray, values: np.ndarray
    ) -> COOTensor:
        """Expand linearized output coordinates back to tensor modes."""
        coords = self.lin_out.decode(self.output_keys(l_idx, r_idx))
        return COOTensor(coords, values, self.output_shape, check=False)

    def canonical_output(
        self, l_idx: np.ndarray, r_idx: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, COOTensor]:
        """The output in canonical (row-major sorted, unique) COO order.

        One sort on :meth:`output_keys` and one decode.  The sort counts
        over the cells when the output fills at least a quarter of them,
        and is a stable argsort otherwise; colliding keys (baselines,
        foreign backends) are summed in stable sorted order, as
        :meth:`COOTensor.sum_duplicates` does.  Returns ``(keys, tensor)``,
        the unique sorted keys aligned with the tensor's columns.
        """
        keys = self.output_keys(l_idx, r_idx)
        values = as_value_array(values)
        cells = self.L * self.R
        dense_output = cells <= 4 * keys.size
        counted = _counting_sort(keys, values, cells) if dense_output else None
        if counted is not None:
            keys, values = counted
        else:
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
            if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
                keys, offsets = group_boundaries(keys)
                values = np.add.reduceat(values, offsets[:-1])
        coords = self.lin_out.decode(keys)
        return keys, COOTensor(coords, values, self.output_shape, check=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContractionSpec(L={self.L}, R={self.R}, C={self.C}, "
            f"pairs={self.pairs})"
        )


@dataclass
class Plan:
    """The decisions FaSTCC made for one contraction (Algorithm 7 output).

    Recorded on every :func:`repro.core.contraction.contract` call so
    benchmarks and users can inspect what the model chose.
    """

    spec: ContractionSpec
    accumulator: str  # "dense" | "sparse"
    tile_l: int
    tile_r: int
    machine_name: str
    p_l: float = 0.0
    p_r: float = 0.0
    est_output_density: float = 0.0
    expected_tile_nnz: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def num_tiles(self) -> tuple[int, int]:
        """``(NL, NR)`` tile grid dimensions."""
        from repro.util.arrays import ceil_div

        return ceil_div(self.spec.L, self.tile_l), ceil_div(self.spec.R, self.tile_r)
