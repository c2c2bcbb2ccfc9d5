"""Chunked memory pool for COO output construction.

The paper's implementation hands each thread heap allocations in 512 MB
chunks as it pushes nonzeros to a thread-local COO list; finished lists
are concatenated by pointer movement (Section 4.2).  ``COOBuilder``
reproduces the behaviour with NumPy block chunks: appends fill the
current chunk and allocate a new one when full, and ``finalize`` stitches
the chunks into flat arrays once.

Amortized append cost is O(1) per element; no per-append reallocation of
previously written data ever happens (unlike naive ``np.concatenate``
accumulation, which is quadratic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.arrays import INDEX_DTYPE, VALUE_DTYPE

__all__ = ["COOBuilder", "PoolStats"]

#: Default chunk capacity in *rows*.  The paper uses 512 MB byte chunks;
#: with 2 index columns + 1 value column of 8 bytes that is ~22M rows.
#: The scaled benchmarks default far lower to keep memory modest.
DEFAULT_CHUNK_ROWS = 1 << 16


@dataclass
class PoolStats:
    """Allocation telemetry for the memory-pool ablation/tests."""

    chunks_allocated: int = 0
    rows_appended: int = 0
    append_calls: int = 0
    finalized: bool = False


class COOBuilder:
    """Append-only builder of linearized (l, r, value) output triples.

    One builder per worker thread; builders are merged (cheaply — array
    concatenation of whole chunks) by the master after all tasks finish,
    mirroring the paper's pointer-stitched thread-local lists.
    """

    __slots__ = ("chunk_rows", "_chunks", "_cur_l", "_cur_r", "_cur_v", "_fill", "stats")

    def __init__(self, chunk_rows: int = DEFAULT_CHUNK_ROWS):
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.chunk_rows = int(chunk_rows)
        self._chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._cur_l = None
        self._cur_r = None
        self._cur_v = None
        self._fill = 0
        self.stats = PoolStats()

    def _new_chunk(self) -> None:
        self._cur_l = np.empty(self.chunk_rows, dtype=INDEX_DTYPE)
        self._cur_r = np.empty(self.chunk_rows, dtype=INDEX_DTYPE)
        self._cur_v = np.empty(self.chunk_rows, dtype=VALUE_DTYPE)
        self._fill = 0
        self.stats.chunks_allocated += 1

    def _seal_current(self) -> None:
        if self._cur_l is not None and self._fill:
            self._chunks.append(
                (
                    self._cur_l[: self._fill],
                    self._cur_r[: self._fill],
                    self._cur_v[: self._fill],
                )
            )
        self._cur_l = self._cur_r = self._cur_v = None
        self._fill = 0

    def append_batch(
        self, l_idx: np.ndarray, r_idx: np.ndarray, values: np.ndarray
    ) -> None:
        """Append a batch of output nonzeros, spilling across chunks."""
        n = l_idx.shape[0]
        if not (r_idx.shape[0] == values.shape[0] == n):
            raise ValueError("output triple arrays must be equal length")
        self.stats.append_calls += 1
        self.stats.rows_appended += n
        offset = 0
        while offset < n:
            if self._cur_l is None or self._fill == self.chunk_rows:
                if self._fill == self.chunk_rows:
                    self._seal_current()
                self._new_chunk()
            take = min(n - offset, self.chunk_rows - self._fill)
            end = self._fill + take
            self._cur_l[self._fill : end] = l_idx[offset : offset + take]
            self._cur_r[self._fill : end] = r_idx[offset : offset + take]
            self._cur_v[self._fill : end] = values[offset : offset + take]
            self._fill = end
            offset += take

    @property
    def rows(self) -> int:
        return self.stats.rows_appended

    def finalize(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stitch all chunks into flat ``(l, r, values)`` arrays."""
        self._seal_current()
        self.stats.finalized = True
        if not self._chunks:
            return (
                np.empty(0, dtype=INDEX_DTYPE),
                np.empty(0, dtype=INDEX_DTYPE),
                np.empty(0, dtype=VALUE_DTYPE),
            )
        ls, rs, vs = zip(*self._chunks)
        return np.concatenate(ls), np.concatenate(rs), np.concatenate(vs)

    @staticmethod
    def merge(builders: list["COOBuilder"]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenate several thread-local builders (master-thread step)."""
        parts = [b.finalize() for b in builders]
        parts = [p for p in parts if p[0].shape[0]]
        if not parts:
            return COOBuilder().finalize()
        if len(parts) == 1:  # one worker: its finalized arrays are fresh
            return parts[0]
        ls, rs, vs = zip(*parts)
        return np.concatenate(ls), np.concatenate(rs), np.concatenate(vs)
