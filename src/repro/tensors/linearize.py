"""Linearization of mode groups to single indices.

The paper's preprocessing step (Section 2.1) linearizes the external-left
modes to one index ``l``, the external-right modes to ``r``, and the
contraction modes to ``c``, reducing every contraction to the matrix form
``O[l, r] = sum_c L[l, c] * R[c, r]``.  The inverse delinearization is
applied to the output as postprocessing.  Both directions are implemented
here with row-major strides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.util.arrays import INDEX_DTYPE, as_index_array

__all__ = ["ModeLinearizer", "linearize", "delinearize"]


class ModeLinearizer:
    """Bijection between multi-mode coordinates and a flat index.

    Row-major: the first mode is the slowest-varying.  ``extents`` may be
    empty, in which case every coordinate maps to linear index 0 (the
    degenerate group that arises when a contraction has no external
    indices on one side).
    """

    __slots__ = ("extents", "strides", "size")

    def __init__(self, extents: Sequence[int]):
        self.extents = tuple(int(e) for e in extents)
        if any(e <= 0 for e in self.extents):
            raise ShapeError(f"extents must be positive: {self.extents}")
        strides = []
        acc = 1
        for e in reversed(self.extents):
            strides.append(acc)
            acc *= e
        self.strides = tuple(reversed(strides))
        self.size = acc  # == prod(extents); 1 for the empty group

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """Map coordinates of shape ``(ndim, n)`` to flat indices ``(n,)``."""
        coords = as_index_array(coords)
        if coords.ndim == 1:
            coords = coords.reshape(len(self.extents), -1)
        if coords.shape[0] != len(self.extents):
            raise ShapeError(
                f"coords has {coords.shape[0]} rows, linearizer has "
                f"{len(self.extents)} modes"
            )
        n = coords.shape[1]
        out = np.zeros(n, dtype=INDEX_DTYPE)
        for stride, row in zip(self.strides, coords):
            out += stride * row
        return out

    def decode(self, flat: np.ndarray) -> np.ndarray:
        """Map flat indices ``(n,)`` back to coordinates ``(ndim, n)``."""
        flat = as_index_array(flat)
        if flat.ndim != 1:
            raise ShapeError("flat index array must be 1-D")
        ndim = len(self.extents)
        out = np.empty((ndim, flat.shape[0]), dtype=INDEX_DTYPE)
        rem = flat
        for k, stride in enumerate(self.strides[:-1]):
            # floor_divide by a scalar is far cheaper than np.divmod.
            quot = np.floor_divide(rem, stride, out=out[k])
            rem = rem - quot * stride
        if ndim:
            out[-1] = rem  # the last stride is 1
        return out


def linearize(coords: np.ndarray, extents: Sequence[int]) -> np.ndarray:
    """Functional form of :meth:`ModeLinearizer.encode`."""
    return ModeLinearizer(extents).encode(coords)


def delinearize(flat: np.ndarray, extents: Sequence[int]) -> np.ndarray:
    """Functional form of :meth:`ModeLinearizer.decode`."""
    return ModeLinearizer(extents).decode(flat)
