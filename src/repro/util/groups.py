"""Vectorized grouped-index kernels.

These are the computational primitives behind every contraction scheme in
the library: finding group boundaries in sorted key arrays, matching two
sorted key sets (the hash-join of the CO scheme), expanding the cartesian
product of matched groups (the per-``c`` outer products of Algorithm 4),
and segment summation (workspace accumulation).

All functions are pure NumPy with no Python-level per-element loops, per
the HPC-Python guidance: the cost of each call is proportional to the
amount of *data* it touches, mirroring the data-volume analysis of the
paper's Section 3.
"""

from __future__ import annotations

import numpy as np

from repro.util.arrays import INDEX_DTYPE

__all__ = [
    "group_boundaries",
    "match_sorted_keys",
    "concat_ranges",
    "grouped_pairs",
    "grouped_cartesian",
    "segment_sum",
]


def group_boundaries(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Locate groups of equal keys in a sorted 1-D array.

    Returns ``(unique_keys, offsets)`` where ``offsets`` has length
    ``len(unique_keys) + 1`` and group ``g`` occupies
    ``sorted_keys[offsets[g]:offsets[g + 1]]``.
    """
    keys = np.asarray(sorted_keys)
    n = keys.shape[0]
    if n == 0:
        return keys[:0].copy(), np.zeros(1, dtype=INDEX_DTYPE)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    starts = np.flatnonzero(change).astype(INDEX_DTYPE)
    offsets = np.concatenate([starts, np.array([n], dtype=INDEX_DTYPE)])
    return keys[starts], offsets


def match_sorted_keys(
    keys_a: np.ndarray, keys_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inner-join two sorted unique key arrays.

    Returns ``(common, idx_a, idx_b)`` such that
    ``keys_a[idx_a] == keys_b[idx_b] == common``.  This is the key
    intersection step of the CO scheme: finding contraction indices ``c``
    present in both input slices.  One binary search into ``keys_b`` per
    key of ``keys_a``.
    """
    keys_a, keys_b = np.asarray(keys_a), np.asarray(keys_b)
    if keys_b.shape[0] == 0:
        return keys_a[:0], np.zeros(0, INDEX_DTYPE), np.zeros(0, INDEX_DTYPE)
    pos = np.minimum(np.searchsorted(keys_b, keys_a), keys_b.shape[0] - 1)
    idx_a = np.flatnonzero(keys_b[pos] == keys_a).astype(INDEX_DTYPE)
    return keys_a[idx_a], idx_a, pos[idx_a].astype(INDEX_DTYPE)


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[starts[g], starts[g] + counts[g])`` back to back."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    offsets = starts - (ends - counts)
    return np.arange(total, dtype=INDEX_DTYPE) + np.repeat(offsets, counts)


def grouped_pairs(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group cartesian products, factored by their ``a`` side.

    The pairs ``(i, j)``, ``i`` in ``[starts_a[g], starts_a[g] +
    counts_a[g])`` and ``j`` likewise for ``b``, listed group by group,
    ``i`` outer and ``j`` inner.  Returns ``(elems_a, reps, idx_b)``:
    every ``a`` element once, how many consecutive pairs each heads, and
    every pair's ``b`` index; the pairs' ``a`` indices are
    ``np.repeat(elems_a, reps)``.  No per-pair integer division.
    """
    starts_a, counts_a, starts_b, counts_b = (
        np.asarray(x, dtype=INDEX_DTYPE)
        for x in (starts_a, counts_a, starts_b, counts_b)
    )
    if not (counts_a.shape == counts_b.shape == starts_a.shape == starts_b.shape):
        raise ValueError("group descriptor arrays must have identical shapes")
    reps = np.repeat(counts_b, counts_a)
    # Every a element's block of pairs is its group's b range.
    idx_b = concat_ranges(np.repeat(starts_b, counts_a), reps)
    return concat_ranges(starts_a, counts_a), reps, idx_b


def grouped_cartesian(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
    *,
    max_pairs: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-group cartesian products into flat index arrays.

    Returns ``(idx_a, idx_b)`` listing every pair of :func:`grouped_pairs`:
    the nested ``for <l, lv> ... for <r, rv>`` loops of Algorithm 4 for
    *all* matched contraction indices at once.  The output size is the
    number of multiply-accumulates, which Section 3.4 notes is identical
    across loop orders.

    ``max_pairs`` guards against accidental quadratic blow-ups; exceeding
    it raises :class:`MemoryError` before any large allocation happens.
    """
    if max_pairs is not None:
        total = int(np.multiply(counts_a, counts_b, dtype=INDEX_DTYPE).sum())
        if total > max_pairs:
            raise MemoryError(
                f"grouped cartesian product would produce {total} pairs "
                f"(> guard of {max_pairs})"
            )
    elems_a, reps, idx_b = grouped_pairs(starts_a, counts_a, starts_b, counts_b)
    return np.repeat(elems_a, reps), idx_b


def segment_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` grouped by (unsorted) ``keys``.

    Returns ``(unique_keys_sorted, sums)``.  Implemented with a sort and
    ``np.add.reduceat`` so the cost is ``O(n log n)`` regardless of the
    key range — this is the dense-workspace-free accumulation fallback
    used by the reference schemes when a dense workspace would not fit.
    """
    keys = np.asarray(keys)
    values = np.asarray(values)
    if keys.shape != values.shape:
        raise ValueError("keys and values must have the same shape")
    if keys.size == 0:
        return keys[:0].copy(), values[:0].copy()
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    svals = values[order]
    uniq, offsets = group_boundaries(skeys)
    sums = np.add.reduceat(svals, offsets[:-1])
    return uniq, sums
