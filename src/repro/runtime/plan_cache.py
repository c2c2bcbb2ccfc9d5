"""LRU plan cache with optional JSON persistence.

Maps :class:`~repro.runtime.signature.ProblemSignature` keys to frozen
Algorithm 7 decisions.  A hit skips planning entirely; entries survive
across processes through :meth:`PlanCache.save` / the ``path`` argument
(a serving process warms from the previous run's decisions on startup).

The LRU, its lock, the tallies and the nnz-drift index are a
:class:`~repro.runtime.store.KeyedStore`; this module adds the
decision type and its file format.  A cache file that fails to parse —
truncated write, hand-edit, version skew — must never take the service
down: loading falls back to an empty (cold) cache and records the
problem in :attr:`PlanCache.load_error`.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec, Plan
from repro.machine.specs import MachineSpec
from repro.runtime.signature import ProblemSignature
from repro.runtime.store import KeyedStore, read_json, write_json

__all__ = ["CachedPlan", "PlanCache"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CachedPlan:
    """The spec-independent part of a :class:`~repro.core.plan.Plan`.

    Everything Algorithm 7 decided, minus the ``ContractionSpec`` (which
    is rebuilt from the live operands on every call — specs hold mode
    linearizers, not decisions).
    """

    accumulator: str
    tile_l: int
    tile_r: int
    machine_name: str
    p_l: float = 0.0
    p_r: float = 0.0
    est_output_density: float = 0.0
    expected_tile_nnz: float = 0.0

    @classmethod
    def from_plan(cls, plan: Plan) -> "CachedPlan":
        return cls(
            accumulator=plan.accumulator,
            tile_l=int(plan.tile_l),
            tile_r=int(plan.tile_r),
            machine_name=plan.machine_name,
            p_l=float(plan.p_l),
            p_r=float(plan.p_r),
            est_output_density=float(plan.est_output_density),
            expected_tile_nnz=float(plan.expected_tile_nnz),
        )

    def materialize(self, spec: ContractionSpec) -> Plan:
        """Attach a live spec, yielding an executable :class:`Plan`."""
        return Plan(
            spec=spec,
            accumulator=self.accumulator,
            tile_l=self.tile_l,
            tile_r=self.tile_r,
            machine_name=self.machine_name,
            p_l=self.p_l,
            p_r=self.p_r,
            est_output_density=self.est_output_density,
            expected_tile_nnz=self.expected_tile_nnz,
            notes={"source": "plan_cache"},
        )


class PlanCache(KeyedStore):
    """LRU map from problem signatures to cached plan decisions.

    Parameters
    ----------
    maxsize:
        Entry capacity; the least-recently-*used* entry is evicted first
        (both hits and inserts refresh recency).
    path:
        Optional JSON file.  When given, the cache warms itself from the
        file at construction (silently starting cold if the file is
        missing or corrupt) and :meth:`flush` writes back to it.

    A lookup that misses exactly may still hit an entry for the *same
    structure* at a nonzero count within
    :data:`~repro.runtime.store.DRIFT_RTOL` (the persisted key embeds the
    operand nnz at save time, so warm-started entries carry their
    provenance): it is reused and re-keyed under the live signature
    (``drift_hits``).  Beyond the tolerance the lookup misses so the
    caller re-prices through Algorithm 7 (``drift_repriced``).

    The tallies, ``hit_rate``, ``stats()``, ``len()`` and
    ``invalidate_where`` are the :class:`KeyedStore`'s; the methods
    below take signatures where the store takes raw keys.
    """

    def __init__(self, maxsize: int = 128, path: str | os.PathLike | None = None):
        super().__init__(maxsize)
        self.path = os.fspath(path) if path is not None else None
        self.load_error: str | None = None
        if self.path is not None and os.path.exists(self.path):
            self.load(self.path, replace=True)

    def __contains__(self, signature: ProblemSignature) -> bool:
        return self.peek(signature.key) is not None

    def get(self, signature: ProblemSignature) -> CachedPlan | None:
        """Look up a cached decision (exact, else within the nnz drift
        tolerance); refreshes LRU recency on hit."""
        return super().get(signature.key)

    def put(self, signature: ProblemSignature, plan: Plan | CachedPlan) -> CachedPlan:
        """Insert (or refresh) a decision, evicting LRU entries at capacity."""
        return self.put_key(signature.key, plan)

    def resolve(
        self,
        signature: ProblemSignature,
        spec: ContractionSpec,
        nnz_l: int,
        nnz_r: int,
        machine: MachineSpec,
        **overrides,
    ) -> tuple[Plan, bool]:
        """``(plan, hit)``: the cached decision materialized for ``spec``,
        else a fresh Algorithm 7 decision (``choose_plan`` with
        ``overrides``), cached under ``signature``."""
        cached = self.get(signature)
        if cached is not None:
            return cached.materialize(spec), True
        plan = choose_plan(spec, nnz_l, nnz_r, machine, **overrides)
        self.put(signature, plan)
        return plan, False

    #: Look up by raw key without touching recency or hit counters: the
    #: autotuner snapshots the entry a promotion is about to displace,
    #: and a peek must not make a cold entry look hot.
    peek_key = KeyedStore.peek

    def put_key(self, key: str, plan: Plan | CachedPlan) -> CachedPlan:
        """Insert (or refresh) a decision under a raw signature key.

        Same LRU semantics as :meth:`put`; the autotuner promotes and
        rolls back by key because it stores keys, not live signatures.
        """
        cached = plan if isinstance(plan, CachedPlan) else CachedPlan.from_plan(plan)
        super().put(key, cached)
        return cached

    def invalidate(self, signature: ProblemSignature) -> bool:
        """Drop one signature's entry; returns whether it existed."""
        return super().invalidate(signature.key)

    #: Drop one entry by raw key (streaming invalidation hook).
    invalidate_key = KeyedStore.invalidate

    # -- persistence ----------------------------------------------------

    def save(self, path: str | os.PathLike | None = None) -> str:
        """Write the cache to JSON (atomic rename); returns the path.

        The snapshot and the write happen under the cache lock, so of
        two concurrent saves the later snapshot is the one left on disk.
        """
        target = os.fspath(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the cache has no default path")
        with self._lock:
            entries = [[k, asdict(v)] for k, v in self._data.items()]
            return write_json(target, {"version": _FORMAT_VERSION, "entries": entries})

    def flush(self) -> str | None:
        """Persist to the default path, if one was configured."""
        return self.save() if self.path is not None else None

    def load(self, path: str | os.PathLike, *, replace: bool = False) -> int:
        """Warm-start from a JSON cache file; returns entries loaded.

        By default loaded entries *merge under* the live ones: an entry
        already decided in this process wins over the persisted copy,
        and at capacity the persisted entries are the ones evicted.
        ``replace=True`` drops the live entries first.  Corrupt files
        degrade to a no-op with the problem recorded on
        :attr:`load_error`, same as construction.
        """
        entries, error = read_json(path, _FORMAT_VERSION, _parse_entries)
        if error is not None:
            self.load_error = error
            return 0
        super().load(entries, replace=replace)
        return len(entries)


def _parse_entries(payload: dict) -> list[tuple[str, CachedPlan]]:
    return [(str(key), CachedPlan(**fields)) for key, fields in payload["entries"]]
