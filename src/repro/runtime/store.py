"""The one keyed store every cache in the runtime is built on.

The plan cache (Algorithm 7 decisions), the network-plan cache, the
per-batch step-result cache and the operand cache (linearized operands
and tiled hash tables) are each a :class:`KeyedStore`: a bounded,
thread-safe LRU with tallies, plus:

* a **drift index** over string keys with an nnz segment (pairwise
  ``|n<l>,<r>|``, network ``|n<a,b,...>|``): an exact miss still hits
  the entry cached for the same structure when every operand's nonzero
  count is within :data:`DRIFT_RTOL` of it, and misses beyond that so
  the caller re-prices instead of replaying a stale decision;
* **pins**: refcounted keys exempt from eviction (a prepared network
  keeps the tables it hoisted).  Pins may carry the store over
  ``maxsize``; eviction resumes once they are released.

:func:`write_json` / :func:`read_json` are the shared file discipline:
atomic writes, and versioned reads where a corrupt or version-skewed
file is a cold start with a reason, never an exception.
"""

from __future__ import annotations

import json
import os
import re
import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable

from repro.errors import ConfigError

__all__ = ["DRIFT_RTOL", "KeyedStore", "read_json", "write_json"]

#: Largest per-operand relative nnz change at which a cached entry for
#: the same structure is still reused.
DRIFT_RTOL = 0.25

_NNZ_SEGMENT = re.compile(r"\|n([\d,]*)\|")


def _split_nnz(key: Hashable) -> tuple[str, tuple[int, ...]] | None:
    """``(key with the nnz segment wildcarded, nnz)``, or ``None``."""
    if not isinstance(key, str):
        return None
    match = _NNZ_SEGMENT.search(key)
    if match is None or not match.group(1):
        return None
    masked = key[: match.start()] + "|n*|" + key[match.end():]
    return masked, tuple(int(n) for n in match.group(1).split(","))


class KeyedStore:
    """Thread-safe LRU map with tallies, a drift index and pins.

    ``maxsize`` bounds the unpinned entries; the least recently *used*
    goes first (hits and inserts both refresh recency).  A drift hit
    re-inserts the entry under the live key, as ``rekey(key, value)``
    when given.  Keys without an nnz segment (ints, tuples, plain
    strings) only ever hit exactly.  Values must not be ``None``:
    ``get`` returns ``None`` for a miss.
    """

    def __init__(
        self,
        maxsize: int,
        *,
        rekey: Callable[[Hashable, Any], Any] | None = None,
    ):
        if maxsize < 1:
            raise ConfigError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._pins: dict[Hashable, int] = {}
        # Wildcarded structure -> (its most recently inserted key, nnz).
        self._index: dict[str, tuple[Hashable, tuple[int, ...]]] = {}
        self._rekey = rekey
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = self.invalidated = 0
        self.drift_hits = self.drift_repriced = 0

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (refreshing recency), else ``None``."""
        with self._lock:
            return self._lookup_locked(key)

    def get_or_put(self, key: Hashable, make: Callable[[], Any]) -> Any:
        """The live value under ``key`` (as :meth:`get`), else ``make()``
        inserted under it, in one atomic step: threads that miss on the
        same key together all get the one value that was inserted."""
        with self._lock:
            value = self._lookup_locked(key)
            if value is None:
                value = make()
                self._insert_locked(key, value)
            return value

    def _lookup_locked(self, key: Hashable) -> Any:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        else:
            value = self._drift_locked(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def _drift_locked(self, key: Hashable) -> Any:
        want = _split_nnz(key)
        found = None if want is None else self._index.get(want[0])
        if want is None or found is None:
            return None
        candidate, have = found
        if len(want[1]) != len(have) or any(
            abs(w - h) / max(h, 1) > DRIFT_RTOL for w, h in zip(want[1], have)
        ):
            self.drift_repriced += 1
            return None
        value = self._data[candidate]
        if self._rekey is not None:
            value = self._rekey(key, value)
        self._insert_locked(key, value)
        self.drift_hits += 1
        return value

    def peek(self, key: Hashable) -> Any:
        """The value under ``key`` without touching recency or tallies."""
        with self._lock:
            return self._data.get(key)

    def items(self) -> list[tuple[Hashable, Any]]:
        """A snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._data.items())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting LRU entries at capacity."""
        with self._lock:
            self._insert_locked(key, value)

    def _insert_locked(self, key: Hashable, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        split = _split_nnz(key)
        if split is not None:
            self._index[split[0]] = (key, split[1])
        self._evict_locked()

    def _evict_locked(self) -> None:
        while len(self._data) > self.maxsize:
            victim = next((k for k in self._data if k not in self._pins), None)
            if victim is None:
                return  # everything over capacity is pinned
            self._remove_locked(victim)
            self.evictions += 1

    def _remove_locked(self, key: Hashable) -> None:
        del self._data[key]
        self._pins.pop(key, None)
        split = _split_nnz(key)
        if split is not None and self._index.get(split[0], (None,))[0] == key:
            del self._index[split[0]]

    def load(self, items: Iterable[tuple[Hashable, Any]], *, replace: bool = False) -> None:
        """Merge entries (least recently used first) *under* the live ones.

        A live entry wins over a loaded one under the same key (it is at
        least as fresh), loaded entries join at the cold end, and at
        capacity the coldest loaded ones are evicted (and counted).
        ``replace=True`` drops the live entries first.
        """
        with self._lock:
            if replace:
                self._data.clear()
                self._index.clear()
            for key, value in reversed(list(items)):
                if key not in self._data:
                    self._data[key] = value
                    self._data.move_to_end(key, last=False)
                    split = _split_nnz(key)
                    if split is not None:
                        self._index.setdefault(split[0], (key, split[1]))
            self._evict_locked()

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry, pinned or not; returns whether it existed."""
        with self._lock:
            if key not in self._data:
                return False
            self._remove_locked(key)
            self.invalidated += 1
            return True

    def invalidate_where(self, predicate: Callable[[Any], bool]) -> int:
        """Drop every entry (pinned or not) whose key satisfies
        ``predicate``; returns how many were dropped."""
        with self._lock:
            victims = [k for k in self._data if predicate(k)]
            for key in victims:
                self._remove_locked(key)
            self.invalidated += len(victims)
            return len(victims)

    def clear(self) -> int:
        """Drop every entry and pin; returns how many entries went."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
            self._pins.clear()
            self._index.clear()
            self.invalidated += dropped
            return dropped

    def pin(self, key: Hashable) -> None:
        """Raise ``key``'s pin refcount: it is exempt from eviction.

        A key may be pinned before it is inserted; the pin then holds
        from the insert on, so pin-then-insert cannot race an eviction.
        """
        with self._lock:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, key: Hashable) -> None:
        """Drop one pin; at refcount zero the entry rejoins the LRU."""
        with self._lock:
            count = self._pins.pop(key, 0)
            if count > 1:
                self._pins[key] = count - 1
            self._evict_locked()

    def pinned_count(self) -> int:
        with self._lock:
            return len(self._pins)

    @property
    def hit_rate(self) -> float:
        return self.stats()["hit_rate"]

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
                "evictions": self.evictions,
                "invalidated": self.invalidated,
                "drift_hits": self.drift_hits,
                "drift_repriced": self.drift_repriced,
                "structures": len(self._index),
            }


def write_json(path: str | os.PathLike, payload: dict) -> str:
    """Write ``payload`` to ``path`` through a per-thread scratch file
    and an atomic ``os.replace``; returns the path.  Readers and crashes
    see the old file or the new one, never a torn one."""
    target = os.fspath(path)
    tmp = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


def read_json(
    path: str | os.PathLike, version: int, parse: Callable[[dict], Any]
) -> tuple[Any, str | None]:
    """``(parse(payload), None)`` for a readable ``version`` document at
    ``path``; ``(None, reason)`` when the file is missing, corrupt,
    version-skewed or rejected by ``parse``."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        found = payload.get("version") if isinstance(payload, dict) else None
        if found != version:
            raise ValueError(f"unsupported format version {found!r}")
        return parse(payload), None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        # json.JSONDecodeError is a ValueError; a dataclass built from
        # unknown fields raises TypeError.
        return None, f"{type(exc).__name__}: {exc}"
