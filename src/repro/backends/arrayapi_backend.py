"""Array-API backend: the kernel ops written against a neutral namespace.

Every op resolves its array namespace from its operands via
``__array_namespace__`` (the array-API standard's entry point), so
torch, cupy, jax or numpy≥2 arrays flow through the same code
unmodified — the drop-in substrate path from the roadmap's "laptop-CPU
to GPU without forking kernels".  With no foreign arrays in play the
namespace resolves to NumPy itself, which is how the differential
harness exercises this backend on hosts without torch installed.

Two implementation choices differ from the reference and set the
tolerance policy (``docs/backends.md``):

* ``hash_accumulate`` reduces segments with a cumulative-sum difference
  (the standard has no ``reduceat``), which reassociates float adds —
  results match to ``rtol=1e-8``.
* ``contract_linearized`` offers a dense GEMM-on-slices fast path:
  when the linearized matrices fit a cell guard it densifies both
  operands, multiplies with ``gemm_slices``, and reads back the
  nonzeros.  Cells whose partial products cancel to exactly zero are
  dropped (the tiled kernel keeps them as explicit zeros), so
  differential comparisons go through dense reconstruction.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend
from repro.util.arrays import INDEX_DTYPE, VALUE_DTYPE

__all__ = ["ArrayAPIBackend"]

#: Ceiling on the cell count of each densified matrix in the dense
#: GEMM fast path (L*C, C*R and L*R must all fit).
DENSE_GEMM_CELL_GUARD = 1 << 20


class ArrayAPIBackend(KernelBackend):
    """Kernel ops through the array-API standard namespace."""

    name = "arrayapi"
    priority = 5
    #: Results may live in a foreign array library; callers convert at
    #: the boundary with :meth:`to_numpy`.
    native_numpy = False

    def __init__(self, namespace=None):
        #: Pinned namespace (e.g. ``torch``); ``None`` resolves per-op
        #: from the operands.
        self._ns = namespace

    @classmethod
    def detect(cls) -> tuple[bool, str]:
        probe = np.zeros(1)
        if not hasattr(probe, "__array_namespace__"):
            return False, (
                "no array-API namespace available "
                "(needs numpy>=2 or an array-API library such as torch)"
            )
        return True, f"array-API via numpy {np.__version__} (torch/cupy drop in)"

    # -- namespace resolution -------------------------------------------

    def _xp(self, *arrays):
        if self._ns is not None:
            return self._ns
        for arr in arrays:
            ns = getattr(arr, "__array_namespace__", None)
            if ns is not None:
                return ns()
        return np

    # -- array lifecycle ------------------------------------------------

    def zeros(self, n: int, dtype=VALUE_DTYPE):
        xp = self._xp()
        return xp.zeros(int(n), dtype=xp.asarray(np.zeros(0, dtype=dtype)).dtype)

    def asarray(self, arr, dtype=None):
        xp = self._xp(arr)
        return xp.asarray(arr) if dtype is None else xp.asarray(arr, dtype=dtype)

    def to_numpy(self, arr) -> np.ndarray:
        try:
            return np.asarray(arr)
        except TypeError:
            # Device arrays without __array__: go through DLPack.
            return np.from_dlpack(arr)

    # -- kernel ops ------------------------------------------------------

    def gather(self, arr, idx):
        xp = self._xp(arr, idx)
        return xp.take(xp.asarray(arr), xp.asarray(idx), axis=0)

    def scatter_accumulate(self, buf, positions, values) -> None:
        xp = self._xp(buf, positions)
        positions = xp.asarray(positions)
        if positions.shape[0] == 0:
            return
        if np.ndim(values) == 0:
            values = xp.full(positions.shape, values, dtype=buf.dtype)
        else:
            values = xp.asarray(values)
        # The standard has no unbuffered scatter-add; pre-combine
        # duplicates so a plain fancy-index accumulate is race-free.
        uniq, sums = self.hash_accumulate(positions, values)
        buf[uniq] = buf[uniq] + xp.astype(sums, buf.dtype)

    def gemm_slices(self, a, b):
        xp = self._xp(a, b)
        return xp.matmul(xp.asarray(a), xp.asarray(b))

    def hash_accumulate(self, keys, values):
        xp = self._xp(keys, values)
        keys = xp.asarray(keys)
        values = xp.asarray(values)
        n = keys.shape[0]
        if n == 0:
            return keys, values
        order = xp.argsort(keys, stable=True)
        skeys = xp.take(keys, order)
        svals = xp.take(values, order)
        head = xp.ones(1, dtype=xp.bool)
        change = xp.concat([head, skeys[1:] != skeys[:-1]])
        starts = xp.nonzero(change)[0]
        # Segment sums as cumulative-sum differences at segment ends.
        csum = xp.cumulative_sum(svals)
        ends = xp.concat(
            [starts[1:], xp.asarray([n], dtype=starts.dtype)]
        ) - 1
        totals = xp.take(csum, ends)
        sums = totals - xp.concat(
            [xp.zeros(1, dtype=totals.dtype), totals[:-1]]
        )
        return xp.take(skeys, starts), sums

    def dense_reduce(self, arr):
        xp = self._xp(arr)
        return float(xp.sum(xp.asarray(arr)))

    def multiply(self, a, b):
        xp = self._xp(a, b)
        return xp.multiply(xp.asarray(a), xp.asarray(b))

    # -- native pairwise path -------------------------------------------

    def has_native_path(self, left, right, plan) -> bool:
        big_l, con = left.ext_extent, left.con_extent
        big_r = right.ext_extent
        guard = DENSE_GEMM_CELL_GUARD
        return (
            big_l * con <= guard
            and con * big_r <= guard
            and big_l * big_r <= guard
        )

    def contract_linearized(self, left, right, plan, *, counters=None):
        big_l, con = left.ext_extent, left.con_extent
        big_r = right.ext_extent
        if not self.has_native_path(left, right, plan):
            return None  # too large to densify; use the tiled kernel
        xp = self._ns if self._ns is not None else np
        vdt = xp.asarray(np.zeros(0, dtype=VALUE_DTYPE)).dtype
        lm = xp.zeros(big_l * con, dtype=vdt)
        # Linearized operands are deduplicated, so positions are unique
        # and a fancy-index assignment is a faithful scatter.
        lm[xp.asarray(left.ext * con + left.con)] = xp.asarray(left.values)
        rm = xp.zeros(con * big_r, dtype=vdt)
        rm[xp.asarray(right.con * big_r + right.ext)] = xp.asarray(right.values)
        out = self.gemm_slices(
            xp.reshape(lm, (big_l, con)), xp.reshape(rm, (con, big_r))
        )
        out_np = self.to_numpy(out)
        l_idx, r_idx = np.nonzero(out_np)
        if counters is not None:
            counters.data_volume += int(left.nnz + right.nnz)
            counters.output_nnz += int(l_idx.shape[0])
        return (
            l_idx.astype(INDEX_DTYPE, copy=False),
            r_idx.astype(INDEX_DTYPE, copy=False),
            np.asarray(out_np[l_idx, r_idx], dtype=VALUE_DTYPE),
        )
