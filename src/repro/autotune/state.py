"""Versioned, corruption-tolerant persistence of learned autotune state.

One JSON document per machine model (the state embeds the machine name
it was learned on and refuses to warm-start a different machine — a
DESKTOP-learned tile preference is noise on SERVER):

* the **calibrated cost weights** the
  :class:`~repro.runtime.calibrator.CostCalibrator` converged to, so a
  restarted service prices plans with measured constants from second
  one;
* the **measurement store** (:mod:`repro.autotune.measurements`), so
  challengers do not restart their trials from zero;
* the **champion table** — per-signature promoted decisions with the
  pre-promotion plan retained for rollback — so a restart (or a fresh
  :class:`~repro.serve.ShardRouter` worker) replays every promotion
  into its plan cache before serving the first request;
* the **promotion history**, the audit log ``repro autotune`` inspects.

The file discipline is the one every persisted cache shares
(:func:`repro.runtime.store.write_json`/:func:`~repro.runtime.store.read_json`):
atomic ``os.replace`` writes, versioned payloads, and a parse failure
that degrades to a cold state recorded on
:attr:`AutotuneState.load_error` instead of taking the service down.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass

from repro.autotune.candidates import Candidate
from repro.autotune.measurements import MeasurementStore
from repro.machine.cost_model import CostWeights
from repro.runtime.store import read_json, write_json

__all__ = ["ChampionRecord", "PromotionEvent", "AutotuneState"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ChampionRecord:
    """The currently-promoted decision for one signature.

    ``plan`` carries the promoted :class:`~repro.runtime.plan_cache.CachedPlan`
    fields for pairwise problems (re-applied to the plan cache on
    warm-start); ``prev_plan`` the decision it displaced, kept for
    rollback.  Network promotions carry the candidate only (the
    preferred optimizer re-routes planning instead of patching a cached
    plan).  ``baseline_mean`` is the champion mean the promotion beat —
    the yardstick rollback measures regressions against.
    """

    arm_id: str
    candidate: Candidate
    baseline_mean: float
    plan: dict | None = None
    prev_plan: dict | None = None

    def to_json(self) -> dict:
        return {
            "arm_id": self.arm_id,
            "candidate": self.candidate.to_json(),
            "baseline_mean": self.baseline_mean,
            "plan": self.plan,
            "prev_plan": self.prev_plan,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ChampionRecord":
        return cls(
            arm_id=str(doc["arm_id"]),
            candidate=Candidate.from_json(doc["candidate"]),
            baseline_mean=float(doc.get("baseline_mean", 0.0)),
            plan=doc.get("plan"),
            prev_plan=doc.get("prev_plan"),
        )


@dataclass(frozen=True)
class PromotionEvent:
    """One entry of the promotion audit log."""

    event: str  # "promote" | "rollback"
    sig_key: str
    arm_id: str
    reason: str
    challenger_mean: float = 0.0
    champion_mean: float = 0.0
    timestamp: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, doc: dict) -> "PromotionEvent":
        return cls(
            event=str(doc.get("event", "promote")),
            sig_key=str(doc.get("sig_key", "")),
            arm_id=str(doc.get("arm_id", "")),
            reason=str(doc.get("reason", "")),
            challenger_mean=float(doc.get("challenger_mean", 0.0)),
            champion_mean=float(doc.get("champion_mean", 0.0)),
            timestamp=float(doc.get("timestamp", 0.0)),
        )


#: Audit-log length bound (the log is diagnostics, not a ledger).
MAX_HISTORY = 256


class AutotuneState:
    """In-memory learned state with JSON persistence and shard merge."""

    def __init__(
        self,
        machine_name: str,
        *,
        path: str | os.PathLike | None = None,
        store: MeasurementStore | None = None,
    ):
        self.machine_name = machine_name
        self.path = os.fspath(path) if path is not None else None
        self.store = store if store is not None else MeasurementStore()
        self.weights: CostWeights | None = None
        self.champions: dict[str, ChampionRecord] = {}
        self.history: list[PromotionEvent] = []
        self.load_error: str | None = None
        self.loaded_from: str | None = None
        self._lock = threading.RLock()
        if self.path is not None and os.path.exists(self.path):
            self.load(self.path)

    # -- mutation -------------------------------------------------------

    def record_event(self, event: PromotionEvent) -> None:
        with self._lock:
            self.history.append(event)
            del self.history[:-MAX_HISTORY]

    def set_champion(self, sig_key: str, record: ChampionRecord) -> None:
        with self._lock:
            self.champions[sig_key] = record

    def clear_champion(self, sig_key: str) -> ChampionRecord | None:
        with self._lock:
            return self.champions.pop(sig_key, None)

    def champion(self, sig_key: str) -> ChampionRecord | None:
        with self._lock:
            return self.champions.get(sig_key)

    # -- persistence ----------------------------------------------------

    def to_json(self) -> dict:
        with self._lock:
            return {
                "version": _FORMAT_VERSION,
                "machine": self.machine_name,
                "saved_at": time.time(),
                "weights": (
                    None if self.weights is None else asdict(self.weights)
                ),
                "store": self.store.to_json(),
                "champions": {
                    k: v.to_json() for k, v in self.champions.items()
                },
                "history": [e.to_json() for e in self.history],
            }

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Atomic JSON write; returns the path written.  Snapshot and
        write share the state lock, so concurrent saves land in order."""
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the state has no default path")
        with self._lock:
            return write_json(target, self.to_json())

    def flush(self) -> str | None:
        return self.save() if self.path is not None else None

    def load(self, path: str | os.PathLike) -> bool:
        """Warm-start from a state file; ``False`` (plus ``load_error``)
        when the file is corrupt, version-skewed, or for another machine."""
        parsed, error = read_json(path, _FORMAT_VERSION, self._parse)
        if error is not None:
            self.load_error = error
            return False
        weights, store, champions, history = parsed
        with self._lock:
            self.weights = weights
            self.store = store
            self.champions = champions
            self.history = history[-MAX_HISTORY:]
            self.loaded_from = os.fspath(path)
        return True

    def _parse(self, payload: dict) -> tuple:
        machine = payload.get("machine")
        if machine != self.machine_name:
            raise ValueError(
                f"state was learned on machine {machine!r}, this "
                f"process runs {self.machine_name!r}"
            )
        weights_doc = payload.get("weights")
        return (
            None if weights_doc is None else CostWeights(**weights_doc),
            MeasurementStore.from_json(payload.get("store", {})),
            {
                str(k): ChampionRecord.from_json(v)
                for k, v in payload.get("champions", {}).items()
            },
            [PromotionEvent.from_json(e) for e in payload.get("history", [])],
        )

    # -- shard merge ----------------------------------------------------

    def merge(self, other: "AutotuneState") -> None:
        """Fold a peer's learning in (associative on the store).

        Measurement stores merge through Chan's moments; champion
        tables merge last-writer-wins per signature (disagreeing shards
        converge once the merged store feeds the next promotion check);
        histories concatenate and trim; weights keep the local fit
        (weights are derived state — refit from the merged samples).
        """
        with self._lock:
            self.store.merge(other.store)
            for key, record in other.champions.items():
                self.champions.setdefault(key, record)
            self.history.extend(other.history)
            self.history.sort(key=lambda e: e.timestamp)
            del self.history[:-MAX_HISTORY]

    def summary(self) -> dict:
        with self._lock:
            return {
                "machine": self.machine_name,
                "weights_fitted": self.weights is not None,
                "champions": len(self.champions),
                "promotions": sum(
                    1 for e in self.history if e.event == "promote"
                ),
                "rollbacks": sum(
                    1 for e in self.history if e.event == "rollback"
                ),
                **self.store.summary(),
            }
