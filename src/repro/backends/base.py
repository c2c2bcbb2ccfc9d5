"""The kernel-backend interface: five narrow ops span every hot loop.

Every contraction scheme in the library bottoms out in the same handful
of array primitives — gathering payload slices, scattering partial
products into a workspace, multiplying matched slices, reducing by key,
and (on dense-enough problems) a plain dense GEMM over linearized
slices.  :class:`KernelBackend` names exactly those ops:

``gather``
    ``arr[idx]`` — payload expansion for the per-``c`` outer products.
``scatter_accumulate``
    ``buf[positions] += values`` with duplicate positions combined —
    the dense-tile update of Section 4.2 (the NumPy reference switches
    between an unbuffered scatter and a one-pass bincount internally).
``gemm_slices``
    dense 2-D matrix multiply of two slices — the accelerated path a
    GPU-class substrate provides natively.
``hash_accumulate``
    reduce ``values`` by (unsorted) ``keys`` into
    ``(unique_keys, sums)`` — the workspace-free accumulation the
    sparse paths rely on.
``dense_reduce``
    full reduction of a value array to a scalar.

Plus the lifecycle helpers (``zeros``/``asarray``/``to_numpy``) a
non-NumPy substrate needs to own its workspaces, and one capability
hook: :meth:`KernelBackend.contract_linearized` lets a backend execute
an *entire* pairwise contraction of linearized operands natively
(scipy's SpGEMM, a dense GEMM on an accelerator) instead of feeding the
tiled CO kernel op by op.  Returning ``None`` means "no native path —
run Algorithm 6 through my element ops".

Backends are discovered and selected through
:mod:`repro.backends.registry`; correctness is enforced by the
cross-backend differential harness under ``tests/backends/`` (see
``docs/backends.md`` for the interface contract and tolerance policy).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import BackendError
from repro.util.arrays import VALUE_DTYPE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.plan import LinearizedOperand, Plan

__all__ = ["KernelBackend"]


class KernelBackend:
    """Abstract kernel backend (see the module docstring for the ops).

    Subclasses set ``name`` (the registry key), ``priority`` (auto-
    selection tie-break, higher wins), and ``native_numpy`` (``False``
    when the backend computes on a foreign array library, in which case
    callers convert results with :meth:`to_numpy` at the boundary).
    """

    name: str = "abstract"
    priority: int = 0
    #: True when the backend's arrays are plain ``numpy.ndarray``s and
    #: results can flow into NumPy consumers without conversion.
    native_numpy: bool = True

    # -- detection ------------------------------------------------------

    @classmethod
    def detect(cls) -> tuple[bool, str]:
        """Feature-detect this backend on the current host.

        Returns ``(available, reason)``; ``reason`` explains an
        unavailable verdict (used verbatim by the test harness's skip
        messages).
        """
        return True, "always available"

    # -- array lifecycle ------------------------------------------------

    def zeros(self, n: int, dtype=VALUE_DTYPE):
        """A zero-filled 1-D workspace owned by this backend."""
        raise NotImplementedError

    def asarray(self, arr, dtype=None):
        """Adopt ``arr`` into this backend's array library."""
        raise NotImplementedError

    def to_numpy(self, arr) -> np.ndarray:
        """Materialize a backend array as a NumPy array (the boundary
        conversion for delinearization and COO assembly)."""
        raise NotImplementedError

    # -- the five kernel ops --------------------------------------------

    def gather(self, arr, idx):
        """``arr[idx]`` for an integer index array."""
        raise NotImplementedError

    def scatter_accumulate(self, buf, positions, values) -> None:
        """``buf[positions] += values`` with in-batch duplicates combined.

        ``values`` may be a scalar (broadcast).
        """
        raise NotImplementedError

    def gemm_slices(self, a, b):
        """Dense 2-D matrix product of two slices (``a @ b``)."""
        raise NotImplementedError

    def hash_accumulate(self, keys, values):
        """Reduce ``values`` by unsorted ``keys``; returns
        ``(unique_keys_sorted, sums)``."""
        raise NotImplementedError

    def dense_reduce(self, arr):
        """Sum a value array to a scalar."""
        raise NotImplementedError

    # convenience element op used between gathers (kept overridable so a
    # substrate can fuse it; default composes with the library operator)
    def multiply(self, a, b):
        """Elementwise product of two gathered value arrays."""
        return a * b

    # -- capability hooks -----------------------------------------------

    def has_native_path(
        self,
        left: "LinearizedOperand",
        right: "LinearizedOperand",
        plan: "Plan",
    ) -> bool:
        """Would :meth:`contract_linearized` accept this problem?

        Cheap predicate the runtime uses to decide whether building
        tiled tables is worthwhile; must agree with the actual
        acceptance test in :meth:`contract_linearized`.
        """
        return False

    def contract_linearized(
        self,
        left: "LinearizedOperand",
        right: "LinearizedOperand",
        plan: "Plan",
        *,
        counters=None,
    ):
        """Execute a whole pairwise contraction natively, if supported.

        Returns ``(l_idx, r_idx, values)`` NumPy arrays with unique
        coordinates, or ``None`` when this problem should run through
        the tiled CO kernel using this backend's element ops instead.
        """
        return None

    # -- misc -----------------------------------------------------------

    def require_available(self) -> "KernelBackend":
        """Raise :class:`~repro.errors.BackendError` unless detected."""
        ok, reason = type(self).detect()
        if not ok:
            raise BackendError(
                f"backend {self.name!r} is not available on this host: {reason}"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
