"""SliceTable: a hash-indexed map from keys to tensor slices.

The loop-order analysis of Section 3 represents each input tensor as a
map such as ``HL: C -> P(L x V)`` — from a contraction index to the set
of (external index, value) pairs in that slice.  ``SliceTable`` realizes
this: payload arrays are sorted by key once at construction, so each
distinct key owns one contiguous group and a query returns array
*views* of the whole slice.

The open-addressing hash table from each distinct key to its group is
built on the table's first probe (``query_batch``, ``get`` or ``in``),
not at construction.  The FaSTCC kernel joins the sorted ``keys()``
directly and never probes, so its tables never pay for a map; the
baselines, the untiled schemes and the semiring kernel probe and build
it once.

A query costs one hash lookup (counted as one ``hash_query``) and its
payload is proportional to the slice's nonzero count (counted as
``data_volume`` by the kernels that consume the views) — exactly the two
metrics Table 1 separates.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.errors import ShapeError
from repro.hashing.open_addressing import OpenAddressingMap
from repro.util.arrays import INDEX_DTYPE, as_index_array, as_value_array
from repro.util.groups import group_boundaries

__all__ = ["SliceTable"]

#: Serializes first-probe map builds, so concurrent first probes of one
#: table build (and count) its map once.  Builds are rare, so one lock
#: for every table is uncontended in practice.
_BUILD_LOCK = threading.Lock()


class SliceTable:
    """Map from int64 keys to slices of (index, value) payload pairs.

    Parameters
    ----------
    keys:
        Key of every payload element (e.g. the contraction index ``c`` of
        every nonzero).
    idx:
        Secondary index of every element (e.g. the external index).
    values:
        Numeric value of every element.
    counters:
        Receives ``hash_queries``/``probes`` for the instrumented runs.
        The map's insert probes are charged here when the map is built,
        on the first probe; construction itself charges none.  Lookups
        are charged here unless a query names other counters.
    """

    __slots__ = (
        "_group_keys",
        "_offsets",
        "_idx",
        "_values",
        "_lookup",
        "counters",
        "nnz",
    )

    def __init__(self, keys, idx, values, *, counters: Counters | None = None):
        keys = as_index_array(keys)
        idx = as_index_array(idx)
        values = as_value_array(values)
        if not (keys.shape == idx.shape == values.shape) or keys.ndim != 1:
            raise ShapeError("keys, idx and values must be equal-length 1-D arrays")
        self.counters = ensure_counters(counters)
        self.nnz = int(keys.shape[0])

        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        self._idx = idx[order]
        self._values = values[order]
        self._group_keys, self._offsets = group_boundaries(sorted_keys)
        self._lookup: OpenAddressingMap | None = None

    def _map(self) -> OpenAddressingMap:
        """The key -> group map, built on first use and then kept."""
        lookup = self._lookup
        if lookup is None:
            with _BUILD_LOCK:
                lookup = self._lookup
                if lookup is None:
                    n_groups = self._group_keys.shape[0]
                    lookup = OpenAddressingMap(
                        max(8, int(n_groups / 0.7) + 1),
                        value_dtype=INDEX_DTYPE,
                        counters=self.counters,
                    )
                    if n_groups:
                        lookup.set_batch(
                            self._group_keys,
                            np.arange(n_groups, dtype=INDEX_DTYPE),
                            assume_unique=True,  # group keys are distinct
                        )
                    self._lookup = lookup
        return lookup

    # ------------------------------------------------------------------

    @property
    def num_keys(self) -> int:
        """Number of distinct keys (nonzero slices)."""
        return int(self._group_keys.shape[0])

    def keys(self) -> np.ndarray:
        """Distinct keys in ascending order (a view; do not mutate)."""
        return self._group_keys

    def group_sizes(self) -> np.ndarray:
        """Nonzero count of every slice, aligned with :meth:`keys`."""
        return np.diff(self._offsets)

    def get(self, key: int) -> tuple[np.ndarray, np.ndarray]:
        """Slice for one key: ``(indices, values)`` views (empty if absent)."""
        gi, found = self._map().get_batch(np.array([key], dtype=INDEX_DTYPE))
        if not found[0]:
            return self._idx[:0], self._values[:0]
        g = int(gi[0])
        sl = slice(int(self._offsets[g]), int(self._offsets[g + 1]))
        return self._idx[sl], self._values[sl]

    def query_batch(
        self, keys: np.ndarray, *, counters: Counters | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hash-lookup many keys at once.

        Returns ``(found_mask, starts, counts)``: for each queried key,
        whether it has a slice and the slice's span in the payload
        arrays (``starts``/``counts`` are zero where not found).  The
        spans feed :func:`repro.util.groups.grouped_pairs` directly.
        ``counters`` receives the lookups' ``hash_queries``/``probes``
        (default: the counters the table was built with), so a cached
        table's queries are charged to the contraction that runs them.
        The first query also builds the map, charging its insert probes
        to the table's own counters.
        """
        keys = as_index_array(keys)
        gi, found = self._map().get_batch(keys, counters=counters)
        starts = np.zeros(keys.shape[0], dtype=INDEX_DTYPE)
        counts = np.zeros(keys.shape[0], dtype=INDEX_DTYPE)
        g = gi[found]
        starts[found] = self._offsets[g]
        counts[found] = self._offsets[g + 1] - self._offsets[g]
        return found, starts, counts

    def spans_for_all_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Starts and counts of every group, aligned with :meth:`keys`.

        Iterating a table's *own* keys does not require hashing (it is a
        scan), so this path adds no query counts.
        """
        return self._offsets[:-1].copy(), np.diff(self._offsets)

    @property
    def payload(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted payload arrays ``(idx, values)`` (views)."""
        return self._idx, self._values

    def __contains__(self, key: int) -> bool:
        return bool(self._map().contains_batch(np.array([key], dtype=INDEX_DTYPE))[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SliceTable(num_keys={self.num_keys}, nnz={self.nnz})"
