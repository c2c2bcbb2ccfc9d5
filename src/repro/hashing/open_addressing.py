"""Open-addressing hash table on NumPy storage.

FaSTCC uses open addressing for both its input tile tables and its sparse
output accumulators (paper Sections 2.2 and 4.2): compared to chaining it
achieves higher space efficiency and better locality, at the cost of
resizes during insertion.

The table maps nonnegative ``int64`` keys to ``float64`` (or ``int64``)
values with linear probing over a power-of-two slot array.  All
operations are *batched*: callers pass key/value arrays and the probe
loop advances every unresolved key by one slot per iteration, so the
Python-level loop count is the *maximum* probe length, not the batch
size.  Concurrent claims of the same empty slot within a batch are
resolved by a write-then-verify race: NumPy fancy assignment guarantees a
single winner, and losers continue probing — the vectorized equivalent of
a CAS loop.

Deletion is intentionally unsupported: the contraction workloads are
insert/upsert/lookup-only, and omitting tombstones keeps probing exact.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.errors import CapacityError, ConfigError, FormatError, ShapeError
from repro.hashing.hash_functions import splitmix64
from repro.util.arrays import INDEX_DTYPE, as_index_array, next_power_of_two
from repro.util.groups import segment_sum

__all__ = ["OpenAddressingMap", "EMPTY_KEY"]

#: Slot sentinel; user keys must therefore be >= 0.
EMPTY_KEY = np.int64(-1)

_MIN_CAPACITY = 8


class OpenAddressingMap:
    """Batched open-addressing map from nonnegative int64 keys to scalars.

    Parameters
    ----------
    initial_capacity:
        Starting slot count (rounded up to a power of two).
    max_load:
        Load factor that triggers a doubling resize.  The paper sizes its
        sparse accumulators for 90% utilization; the default here is a
        slightly safer 0.85 for linear probing.
    value_dtype:
        ``float64`` (accumulators) or ``int64`` (index maps).
    hash_fn:
        Vectorized ``int64 array -> uint64 array`` mixer.  Tests inject a
        pathological constant hash here to exercise worst-case probing.
    counters:
        Optional :class:`~repro.analysis.counters.Counters` receiving
        ``probes`` and ``resizes``.
    """

    __slots__ = ("_keys", "_values", "_size", "max_load", "_hash", "counters",
                 "probing")

    def __init__(
        self,
        initial_capacity: int = 64,
        *,
        max_load: float = 0.85,
        value_dtype=np.float64,
        hash_fn: Callable[[np.ndarray], np.ndarray] = splitmix64,
        counters: Counters | None = None,
        probing: str = "linear",
    ):
        if not 0.0 < max_load < 1.0:
            raise ConfigError(f"max_load must be in (0, 1), got {max_load}")
        if probing not in ("linear", "quadratic"):
            raise ConfigError(f"probing must be linear|quadratic, got {probing!r}")
        capacity = max(_MIN_CAPACITY, next_power_of_two(initial_capacity))
        self._keys = np.full(capacity, EMPTY_KEY, dtype=INDEX_DTYPE)
        self._values = np.zeros(capacity, dtype=value_dtype)
        self._size = 0
        self.max_load = max_load
        self._hash = hash_fn
        self.counters = ensure_counters(counters)
        self.probing = probing

    def _advance(self, base: np.ndarray, k: int, mask) -> np.ndarray:
        """Slot at probe number ``k`` for each base hash.

        Linear probing steps by 1 (best locality, worst clustering);
        triangular-number quadratic probing (valid for power-of-two
        capacities: it visits every slot) breaks up primary clusters —
        one of the "more advanced hashing techniques" of Sec. 7.2.
        """
        if self.probing == "linear":
            offset = k
        else:
            offset = (k * (k + 1)) // 2
        return (base + np.int64(offset)) & np.int64(mask)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return int(self._keys.shape[0])

    @property
    def load_factor(self) -> float:
        return self._size / self.capacity

    @property
    def value_dtype(self):
        return self._values.dtype

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored ``(keys, values)``, in unspecified order."""
        occupied = self._keys != EMPTY_KEY
        return self._keys[occupied].copy(), self._values[occupied].copy()

    def items_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """All stored ``(keys, values)``, sorted by key."""
        keys, values = self.items()
        order = np.argsort(keys, kind="stable")
        return keys[order], values[order]

    # ------------------------------------------------------------------
    # Internal probing machinery
    # ------------------------------------------------------------------

    def _check_keys(self, keys: np.ndarray) -> np.ndarray:
        keys = as_index_array(keys)
        if keys.ndim != 1:
            raise ShapeError("key batches must be 1-D")
        if keys.size and keys.min() < 0:
            raise FormatError("keys must be nonnegative (negative is the sentinel)")
        return keys

    def _locate(
        self, keys: np.ndarray, counters: Counters | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Find slots for existing keys without modifying the table.

        Returns ``(slots, found)``; ``slots`` is meaningful only where
        ``found`` is true.  Probes are charged to ``counters`` (default:
        the table's own).
        """
        n = keys.shape[0]
        mask = np.uint64(self.capacity - 1)
        base = (self._hash(keys) & mask).astype(INDEX_DTYPE)
        slots = base.copy()
        found = np.zeros(n, dtype=bool)
        pending = np.arange(n, dtype=INDEX_DTYPE)
        probes = 0
        k = 0
        while pending.size:
            probes += pending.size
            cur = self._keys[slots[pending]]
            is_match = cur == keys[pending]
            is_empty = cur == EMPTY_KEY
            found[pending[is_match]] = True
            # Keys that hit an empty slot are definitively absent.
            unresolved = ~(is_match | is_empty)
            pending = pending[unresolved]
            if pending.size:
                k += 1
                slots[pending] = self._advance(base[pending], k, mask)
        (self.counters if counters is None else counters).probes += probes
        return slots, found

    def _locate_or_claim(
        self, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Find or insert each (unique) key; returns ``(slots, claimed)``.

        Newly claimed slots have their value zero-initialized.  Callers
        must guarantee ``keys`` are unique within the batch and that a
        resize has already made room.
        """
        n = keys.shape[0]
        mask = np.uint64(self.capacity - 1)
        base = (self._hash(keys) & mask).astype(INDEX_DTYPE)
        slots = base.copy()
        claimed = np.zeros(n, dtype=bool)
        pending = np.arange(n, dtype=INDEX_DTYPE)
        probes = 0
        k = 0
        while pending.size:
            probes += pending.size
            s = slots[pending]
            cur = self._keys[s]
            is_match = cur == keys[pending]
            is_empty = cur == EMPTY_KEY
            empties = pending[is_empty]
            if empties.size:
                es = slots[empties]
                # Race the claims: last write wins, losers re-probe.
                self._keys[es] = keys[empties]
                won = self._keys[es] == keys[empties]
                winners = empties[won]
                self._values[slots[winners]] = 0
                claimed[winners] = True
                # Winners now match their slot; losers see the winner's
                # key and fall through to re-probe below.
                is_match = self._keys[s] == keys[pending]
            pending = pending[~is_match]
            if pending.size:
                k += 1
                slots[pending] = self._advance(base[pending], k, mask)
        self.counters.probes += probes
        self._size += int(claimed.sum())
        return slots, claimed

    def _reserve(self, incoming: int) -> None:
        """Grow so that ``size + incoming`` stays under the load limit."""
        needed = self._size + incoming
        if needed <= self.max_load * self.capacity:
            return
        new_capacity = self.capacity
        while needed > self.max_load * new_capacity:
            new_capacity *= 2
            if new_capacity > 1 << 40:  # pragma: no cover - sanity stop
                raise CapacityError("open-addressing table grew past 2^40 slots")
        old_keys, old_values = self.items()  # probing scheme preserved
        self._keys = np.full(new_capacity, EMPTY_KEY, dtype=INDEX_DTYPE)
        self._values = np.zeros(new_capacity, dtype=self._values.dtype)
        self._size = 0
        self.counters.resizes += 1
        if old_keys.size:
            slots, _ = self._locate_or_claim(old_keys)
            self._values[slots] = old_values

    # ------------------------------------------------------------------
    # Public batched operations
    # ------------------------------------------------------------------

    def upsert_batch(self, keys: np.ndarray, values: np.ndarray) -> None:
        """``table[k] += v`` for each pair, inserting missing keys at 0.

        This is the ``WS.upsert`` of Algorithms 3/4/6.  Duplicate keys
        within the batch are combined first, so the per-slot accumulation
        is race-free.
        """
        keys = self._check_keys(keys)
        values = np.asarray(values, dtype=self._values.dtype)
        if keys.shape != values.shape:
            raise ShapeError("keys and values must have equal length")
        if keys.size == 0:
            return
        ukeys, uvals = segment_sum(keys, values)
        self._reserve(ukeys.shape[0])
        slots, _ = self._locate_or_claim(ukeys)
        self._values[slots] += uvals

    def set_batch(
        self, keys: np.ndarray, values: np.ndarray, *, assume_unique: bool = False
    ) -> None:
        """``table[k] = v`` (overwrite) for each pair; last duplicate wins.

        ``assume_unique`` skips the duplicate resolution when the caller
        guarantees distinct keys (the slice tables insert group keys,
        which are unique by construction) — a construction hot path.
        """
        keys = self._check_keys(keys)
        values = np.asarray(values, dtype=self._values.dtype)
        if keys.shape != values.shape:
            raise ShapeError("keys and values must have equal length")
        if keys.size == 0:
            return
        if assume_unique:
            self._reserve(keys.shape[0])
            slots, _ = self._locate_or_claim(keys)
            self._values[slots] = values
            return
        # Keep the last occurrence of each duplicate key.
        rev_uniq, rev_first = np.unique(keys[::-1], return_index=True)
        last_pos = keys.shape[0] - 1 - rev_first
        self._reserve(rev_uniq.shape[0])
        slots, _ = self._locate_or_claim(rev_uniq)
        self._values[slots] = values[last_pos]

    def get_batch(
        self, keys: np.ndarray, default=0, *, counters: Counters | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Look up many keys; returns ``(values, found_mask)``.

        Missing keys yield ``default``.  Counted as one hash query per
        key (the paper's query metric), charged to ``counters`` when
        given — the calling contraction of a table built by another —
        and to the table's own counters otherwise.
        """
        keys = self._check_keys(keys)
        counters = self.counters if counters is None else counters
        counters.hash_queries += keys.shape[0]
        slots, found = self._locate(keys, counters)
        out = np.full(keys.shape[0], default, dtype=self._values.dtype)
        out[found] = self._values[slots[found]]
        return out, found

    def contains_batch(self, keys: np.ndarray) -> np.ndarray:
        """Membership mask for a batch of keys."""
        keys = self._check_keys(keys)
        self.counters.hash_queries += keys.shape[0]
        _, found = self._locate(keys)
        return found

    # Convenience scalar forms (tests / interactive use; not hot paths).

    def __contains__(self, key: int) -> bool:
        return bool(self.contains_batch(np.array([key]))[0])

    def __getitem__(self, key: int):
        values, found = self.get_batch(np.array([key]))
        if not found[0]:
            raise KeyError(key)  # staticcheck: ignore[FSTC102] mapping protocol
        return values[0]

    def __setitem__(self, key: int, value) -> None:
        self.set_batch(np.array([key]), np.array([value]))

    def to_dict(self) -> dict[int, float]:
        keys, values = self.items()
        return {int(k): v for k, v in zip(keys, values.tolist())}
