"""Bounded per-signature, per-arm measurement statistics.

Every explored or champion execution contributes one wall-clock sample
to the :class:`MeasurementStore`: a two-level map from a signature key
(:class:`~repro.runtime.signature.ProblemSignature` or
:class:`~repro.network.plan.NetworkSignature` string form) to the
statistics of each candidate *arm* tried for it.  The store is the
bandit's entire world model — arm selection, promotion and rollback all
read from it — so it has three hard requirements:

* **bounded** — signatures are LRU-evicted past ``max_signatures`` and
  arms past ``max_arms`` per signature, so a long-lived service cannot
  grow it without limit;
* **associative merge** — shard processes each keep a private store and
  the router folds them together exactly like the SLO metrics merge:
  counts and sums add, variance merges through Chan's parallel update,
  so ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` on the running
  moments;
* **JSON round-trip** — the store is one section of the persisted
  autotune state (:mod:`repro.autotune.state`), versioned and
  corruption-tolerant like the :class:`~repro.runtime.plan_cache.PlanCache`.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = ["ArmStats", "MeasurementStore"]

#: How many of the most recent samples each arm keeps verbatim (the
#: rollback check reads a *recent* mean, not the lifetime one).
RECENT_WINDOW = 8


@dataclass
class ArmStats:
    """Running moments of one arm's measured wall-clock seconds."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0          # sum of squared deviations (Welford)
    best: float = math.inf   # fastest single sample seen
    recent: list[float] = field(default_factory=list)

    def observe(self, seconds: float) -> None:
        """Welford update with one finite, non-negative sample."""
        if not math.isfinite(seconds) or seconds < 0:
            return
        self.count += 1
        delta = seconds - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (seconds - self.mean)
        self.best = min(self.best, seconds)
        self.recent.append(seconds)
        del self.recent[:-RECENT_WINDOW]

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def recent_mean(self) -> float:
        """Mean of the trailing window (falls back to the lifetime mean)."""
        if not self.recent:
            return self.mean
        return sum(self.recent) / len(self.recent)

    def merge(self, other: "ArmStats") -> None:
        """Fold ``other`` in (Chan's parallel moments: associative)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.best = other.best
            self.recent = list(other.recent[-RECENT_WINDOW:])
            return
        n1, n2 = self.count, other.count
        delta = other.mean - self.mean
        total = n1 + n2
        self.mean += delta * n2 / total
        self.m2 += other.m2 + delta * delta * n1 * n2 / total
        self.count = total
        self.best = min(self.best, other.best)
        self.recent = (self.recent + other.recent)[-RECENT_WINDOW:]

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "m2": self.m2,
            "best": self.best if math.isfinite(self.best) else None,
            "recent": list(self.recent),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ArmStats":
        best = doc.get("best")
        return cls(
            count=int(doc.get("count", 0)),
            mean=float(doc.get("mean", 0.0)),
            m2=float(doc.get("m2", 0.0)),
            best=math.inf if best is None else float(best),
            recent=[float(x) for x in doc.get("recent", [])][-RECENT_WINDOW:],
        )


class MeasurementStore:
    """Bounded two-level map ``signature key -> arm id -> ArmStats``.

    Thread-safe: the serve worker pool records measurements concurrently
    while the router thread snapshots for metrics/merges.
    """

    def __init__(self, max_signatures: int = 256, max_arms: int = 16):
        if max_signatures < 1 or max_arms < 2:
            raise ConfigError(
                f"need max_signatures >= 1 and max_arms >= 2, got "
                f"{max_signatures}/{max_arms} (one champion plus at least "
                "one challenger)"
            )
        self.max_signatures = int(max_signatures)
        self.max_arms = int(max_arms)
        self._entries: OrderedDict[str, OrderedDict[str, ArmStats]] = (
            OrderedDict()
        )
        self._lock = threading.RLock()
        self.total_samples = 0
        self.evicted_signatures = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def signatures(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def observe(self, sig_key: str, arm_id: str, seconds: float) -> ArmStats:
        """Record one sample; creates signature/arm entries as needed."""
        with self._lock:
            arms = self._entries.get(sig_key)
            if arms is None:
                arms = OrderedDict()
                self._entries[sig_key] = arms
            self._entries.move_to_end(sig_key)
            stats = arms.get(arm_id)
            if stats is None:
                stats = ArmStats()
                arms[arm_id] = stats
            arms.move_to_end(arm_id)
            before = stats.count
            stats.observe(seconds)
            self.total_samples += stats.count - before
            while len(arms) > self.max_arms:
                arms.popitem(last=False)
            while len(self._entries) > self.max_signatures:
                self._entries.popitem(last=False)
                self.evicted_signatures += 1
            return stats

    def arms(self, sig_key: str) -> dict[str, ArmStats]:
        """Snapshot of the arm stats for one signature (copies the map,
        shares the mutable :class:`ArmStats` — callers only read)."""
        with self._lock:
            return dict(self._entries.get(sig_key, {}))

    def stats_for(self, sig_key: str, arm_id: str) -> ArmStats | None:
        with self._lock:
            arms = self._entries.get(sig_key)
            return None if arms is None else arms.get(arm_id)

    def trials(self, sig_key: str, arm_id: str) -> int:
        stats = self.stats_for(sig_key, arm_id)
        return 0 if stats is None else stats.count

    # -- merge / persistence -------------------------------------------

    def merge(self, other: "MeasurementStore") -> None:
        """Fold another store in (associative on the running moments).

        Merged signatures and their arms become the most recent, in the
        peer's order, before eviction runs — so a full store evicts its
        own untouched entries, never the ones that just gained samples.
        """
        with other._lock:
            snapshot = [
                (sig, [(arm, s.to_json()) for arm, s in arms.items()])
                for sig, arms in other._entries.items()
            ]
        with self._lock:
            for sig, arms in snapshot:
                mine = self._entries.setdefault(sig, OrderedDict())
                self._entries.move_to_end(sig)
                for arm_id, doc in arms:
                    incoming = ArmStats.from_json(doc)
                    stats = mine.get(arm_id)
                    if stats is None:
                        mine[arm_id] = incoming
                    else:
                        stats.merge(incoming)
                        mine.move_to_end(arm_id)
                    self.total_samples += incoming.count
                while len(mine) > self.max_arms:
                    mine.popitem(last=False)
            while len(self._entries) > self.max_signatures:
                self._entries.popitem(last=False)
                self.evicted_signatures += 1

    def to_json(self) -> dict:
        with self._lock:
            return {
                "max_signatures": self.max_signatures,
                "max_arms": self.max_arms,
                "signatures": {
                    sig: {arm: s.to_json() for arm, s in arms.items()}
                    for sig, arms in self._entries.items()
                },
            }

    @classmethod
    def from_json(cls, doc: dict) -> "MeasurementStore":
        store = cls(
            max_signatures=int(doc.get("max_signatures", 256)),
            max_arms=int(doc.get("max_arms", 16)),
        )
        for sig, arms in doc.get("signatures", {}).items():
            for arm_id, stats_doc in arms.items():
                stats = ArmStats.from_json(stats_doc)
                if stats.count > 0:
                    entry = store._entries.setdefault(
                        str(sig), OrderedDict()
                    )
                    entry[str(arm_id)] = stats
                    store.total_samples += stats.count
        return store

    def summary(self) -> dict:
        """Associative counters (the metrics-merge friendly view)."""
        with self._lock:
            return {
                "signatures": len(self._entries),
                "samples": self.total_samples,
                "evicted_signatures": self.evicted_signatures,
            }
