"""Output tile accumulators (paper Section 4.2).

A tile accumulator receives the partial products of one output tile and
is then *drained* into the output COO list.  Two designs, selected by
the probabilistic model:

* :class:`DenseTileAccumulator` — the paper's dense tile structure:
  a value buffer ``nnz`` of ``T_L * T_R`` cells, an active-position
  array ``apos``, and a bitmask ``bm``.  An update test-and-sets the
  bit, appends fresh positions to ``apos``, and adds into the buffer —
  constant time, three random accesses into dense storage.  The drain
  walks only ``apos`` (not the whole tile), the design choice the drain
  ablation benchmark quantifies.

* :class:`SparseTileAccumulator` — an open-addressing hash table whose
  upsert is the paper's constant-expected-time update; used when a dense
  tile would be mostly empty.

Both accept *batches* of flattened intra-tile positions, matching the
vectorized kernels.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.backends.base import KernelBackend
from repro.core.guards import DEFAULT_DENSE_CELL_GUARD, guard_verdict
from repro.errors import ConfigError, ShapeError
from repro.hashing.open_addressing import OpenAddressingMap
from repro.util.arrays import INDEX_DTYPE, VALUE_DTYPE
from repro.util.groups import group_boundaries


def _default_backend() -> KernelBackend:
    from repro.backends.registry import get_backend

    return get_backend("numpy")

__all__ = [
    "DenseTileAccumulator",
    "SparseTileAccumulator",
    "make_accumulator",
    "DEFAULT_DENSE_CELL_GUARD",
]


class DenseTileAccumulator:
    """Dense tile: value buffer + active-position list + bitmask.

    ``bitmask="bool"`` (default) tracks activity with a byte-per-cell
    bool array — fastest in NumPy; ``bitmask="packed"`` uses the paper's
    exact 1-bit-per-cell layout (``T_L * T_R / 8`` bytes, Section 4.2)
    via :class:`repro.util.bitmask.PackedBitmask`.  Both are covered by
    the equivalence tests.
    """

    __slots__ = ("tile_l", "tile_r", "buf", "bm", "apos", "_napos", "counters",
                 "_packed", "_scratch", "trace", "backend")

    def __init__(
        self,
        tile_l: int,
        tile_r: int,
        *,
        counters: Counters | None = None,
        cell_guard: int = DEFAULT_DENSE_CELL_GUARD,
        bitmask: str = "bool",
        trace=None,
        backend: KernelBackend | None = None,
    ):
        cells = int(tile_l) * int(tile_r)
        guard_verdict("dense", tile_l, tile_r, cell_guard=cell_guard).enforce()
        if bitmask not in ("bool", "packed"):
            raise ConfigError(f"bitmask must be bool|packed, got {bitmask!r}")
        self.tile_l = int(tile_l)
        self.tile_r = int(tile_r)
        self.backend = backend if backend is not None else _default_backend()
        self.buf = self.backend.zeros(cells, dtype=VALUE_DTYPE)
        self._packed = bitmask == "packed"
        if self._packed:
            from repro.util.bitmask import PackedBitmask

            self.bm = PackedBitmask(cells)
        else:
            self.bm = np.zeros(cells, dtype=bool)
            self._scratch = np.zeros(cells, dtype=bool)  # see update_batch
        self.apos = np.empty(min(cells, 1024), dtype=INDEX_DTYPE)
        self._napos = 0
        self.counters = ensure_counters(counters)
        self.counters.note_workspace(cells)
        self.trace = trace

    @property
    def cells(self) -> int:
        return self.buf.shape[0]

    @property
    def nnz(self) -> int:
        """Active (touched) positions so far."""
        return self._napos

    def update_batch(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Accumulate ``values`` at flattened intra-tile ``positions``.

        The scatter itself (duplicate handling, the batch-size
        heuristic) lives in the backend's ``scatter_accumulate``; this
        method keeps the bookkeeping: fresh positions — bit not yet
        set, so every position on a tile's first batch — are appended to
        ``apos`` exactly once even when repeated, in ascending order.
        """
        positions = np.asarray(positions, dtype=INDEX_DTYPE)
        values = np.asarray(values, dtype=VALUE_DTYPE)
        if positions.shape != values.shape:
            raise ShapeError("positions and values must be equal length")
        if positions.size == 0:
            return
        self.counters.accum_updates += positions.shape[0]
        if self.trace is not None:
            self.trace.record(positions)
        self.backend.scatter_accumulate(self.buf, positions, values)
        if self._packed:
            fresh_mask = self.bm.test_and_set(positions)
            if fresh_mask.any():
                self._append_apos(positions[fresh_mask])
            return
        fresh = positions[~self.bm[positions]] if self._napos else positions
        if not fresh.shape[0]:
            return
        if fresh.shape[0] * 8 < self.cells:
            fresh = group_boundaries(np.sort(fresh))[0]
        else:
            # Many fresh cells: marking and scanning a reused scratch
            # mask beats sorting them.
            self._scratch[fresh] = True
            fresh = np.flatnonzero(self._scratch)
            self._scratch[fresh] = False
        self.bm[fresh] = True
        self._append_apos(fresh)

    def _append_apos(self, fresh: np.ndarray) -> None:
        need = self._napos + fresh.shape[0]
        if need > self.apos.shape[0]:
            new_cap = max(need, 2 * self.apos.shape[0])
            grown = np.empty(min(new_cap, self.cells), dtype=INDEX_DTYPE)
            grown[: self._napos] = self.apos[: self._napos]
            self.apos = grown
        self.apos[self._napos : need] = fresh
        self._napos = need

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Extract ``(positions, values)`` by walking only ``apos``.

        Iterates the active nonzeros instead of the whole ``T_L * T_R``
        area (Section 4.2's fast drain).
        """
        active = self.apos[: self._napos]
        return active.copy(), self._read_buf(active)

    def _read_buf(self, positions: np.ndarray) -> np.ndarray:
        """Gather buffer cells as a fresh NumPy value array."""
        if self.backend.native_numpy:
            return self.buf[positions]
        gathered = self.backend.gather(self.buf, positions)
        return np.array(self.backend.to_numpy(gathered), dtype=VALUE_DTYPE)

    def drain_full_scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain by scanning the entire tile (ablation baseline only)."""
        mask = self.bm.to_bool_array() if self._packed else self.bm
        positions = np.flatnonzero(mask).astype(INDEX_DTYPE)
        return positions, self._read_buf(positions)

    def reset(self) -> None:
        """Clear for reuse on the next tile (clears only touched cells)."""
        active = self.apos[: self._napos]
        self.buf[active] = 0.0
        if self._packed:
            self.bm.clear(active)
        else:
            self.bm[active] = False
        self._napos = 0


class SparseTileAccumulator:
    """Sparse tile: an open-addressing upsert table."""

    __slots__ = ("tile_l", "tile_r", "_table", "counters", "trace", "backend")

    def __init__(
        self,
        tile_l: int,
        tile_r: int,
        *,
        expected_nnz: int = 64,
        counters: Counters | None = None,
        trace=None,
        backend: KernelBackend | None = None,
    ):
        self.tile_l = int(tile_l)
        self.tile_r = int(tile_r)
        self.counters = ensure_counters(counters)
        self.backend = backend if backend is not None else _default_backend()
        self._table = OpenAddressingMap(
            max(8, int(expected_nnz / 0.7) + 1), counters=self.counters
        )
        self.trace = trace

    @property
    def nnz(self) -> int:
        return len(self._table)

    def update_batch(self, positions: np.ndarray, values: np.ndarray) -> None:
        """Upsert: insert-or-add each (position, value) pair."""
        positions = np.asarray(positions, dtype=INDEX_DTYPE)
        self.counters.accum_updates += positions.shape[0]
        if self.trace is not None:
            self.trace.record(positions)
        if not self.backend.native_numpy:
            # Pre-combine on the foreign substrate, then upsert the
            # (now duplicate-free) partial sums into the host table.
            uniq, sums = self.backend.hash_accumulate(
                self.backend.asarray(positions), self.backend.asarray(values)
            )
            positions = np.asarray(
                self.backend.to_numpy(uniq), dtype=INDEX_DTYPE
            )
            values = np.asarray(self.backend.to_numpy(sums), dtype=VALUE_DTYPE)
        self._table.upsert_batch(positions, values)
        self.counters.note_workspace(self._table.capacity)

    def drain(self) -> tuple[np.ndarray, np.ndarray]:
        """Extract ``(positions, values)`` by iterating the hash table."""
        return self._table.items_sorted()

    def reset(self) -> None:
        self._table = OpenAddressingMap(
            max(8, self._table.capacity // 2), counters=self.counters
        )


def make_accumulator(
    kind: str,
    tile_l: int,
    tile_r: int,
    *,
    expected_nnz: int = 64,
    counters: Counters | None = None,
    cell_guard: int = DEFAULT_DENSE_CELL_GUARD,
    trace=None,
    backend: KernelBackend | None = None,
):
    """Factory dispatching on the plan's accumulator kind."""
    if kind == "dense":
        return DenseTileAccumulator(
            tile_l, tile_r, counters=counters, cell_guard=cell_guard,
            trace=trace, backend=backend,
        )
    if kind == "sparse":
        return SparseTileAccumulator(
            tile_l, tile_r, expected_nnz=expected_nnz, counters=counters,
            trace=trace, backend=backend,
        )
    raise ConfigError(f"unknown accumulator kind {kind!r}")
