"""The reference backend: the library's original NumPy kernels.

This is a straight extraction of the NumPy calls that used to live
inline in ``core/accumulators.py`` and the tiled CO kernel, preserved
bit-for-bit:

* ``scatter_accumulate`` keeps the batch-size heuristic the dense
  accumulator shipped with — one ``np.bincount`` pass for batches of at
  least an eighth of the tile, ``np.add.at`` otherwise.  The switch is
  part of the reference's per-cell summation order.
* ``hash_accumulate`` is :func:`repro.util.groups.segment_sum` — the
  sort + ``reduceat`` reduction the workspace-free paths always used.

Every other backend is differentially fuzzed against this one.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import KernelBackend
from repro.util.arrays import INDEX_DTYPE, VALUE_DTYPE
from repro.util.groups import segment_sum

__all__ = ["NumpyBackend"]


class NumpyBackend(KernelBackend):
    """Reference implementation on plain ``numpy.ndarray``s."""

    name = "numpy"
    priority = 0
    native_numpy = True

    @classmethod
    def detect(cls) -> tuple[bool, str]:
        return True, f"numpy {np.__version__} (reference)"

    # -- array lifecycle ------------------------------------------------

    def zeros(self, n: int, dtype=VALUE_DTYPE):
        return np.zeros(int(n), dtype=dtype)

    def asarray(self, arr, dtype=None):
        return np.asarray(arr, dtype=dtype)

    def to_numpy(self, arr) -> np.ndarray:
        return np.asarray(arr)

    # -- kernel ops ------------------------------------------------------

    def gather(self, arr, idx):
        return arr[idx]

    def scatter_accumulate(self, buf, positions, values) -> None:
        positions = np.asarray(positions, dtype=INDEX_DTYPE)
        n = positions.shape[0]
        if n == 0:
            return
        if np.ndim(values) and n >= buf.shape[0] // 8:
            # Large batch: one dense bincount pass beats the unbuffered
            # scatter of np.add.at (which serializes on duplicates).
            buf += np.bincount(positions, weights=values, minlength=buf.shape[0])
        else:
            # Also the scalar broadcast (histogram counting, e.g.
            # chained-bucket length tallies): every duplicate contributes.
            np.add.at(buf, positions, values)

    def gemm_slices(self, a, b):
        return np.matmul(a, b)

    def hash_accumulate(self, keys, values):
        return segment_sum(keys, values)

    def dense_reduce(self, arr):
        return float(np.sum(arr))

    def multiply(self, a, b):
        return np.multiply(a, b)
