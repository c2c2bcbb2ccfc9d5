"""Tensor versions and tile-granular dependency tracking.

Every cache in the system — linearized operands and tiled tables in the
:class:`~repro.runtime.executor.ContractionRuntime`, plan-cache entries,
:class:`~repro.network.executor.PreparedNetwork` operand pins, and the
:class:`~repro.streaming.engine.IncrementalEngine`'s stored outputs —
was built against a *snapshot* of some tensor.  Once that tensor
mutates, the artifact is stale; reading it anyway returns silently
wrong results.  The :class:`DependencyTracker` makes the dependency
explicit and checkable:

* every named tensor has a monotonic **version** (bumped per delta);
* every artifact registers the ``(tensor, tiles)`` pairs it was derived
  from — tile-granular where the artifact is tiled (a delta touching
  tiles ``{3, 7}`` leaves a table for tile 5 fresh), whole-tensor
  (``tiles=None``) otherwise;
* :meth:`DependencyTracker.bump` marks every artifact whose dependency
  intersects the mutation and returns the invalidated ids, so callers
  can fan the invalidation out to the owning caches;
* consumers guard reads with :meth:`DependencyTracker.assert_fresh`,
  which raises :class:`~repro.errors.StaleReadError` (code ``FSTC701``);
  an artifact registered with no dependencies is refused (``FSTC702``).

The tracker is deliberately cache-agnostic: it stores opaque artifact
ids and never holds the artifacts themselves, so it cannot leak memory
on behalf of the caches it audits.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.errors import StaleReadError, StreamError

__all__ = ["Artifact", "DependencyTracker", "TensorVersion"]


class TensorVersion:
    """Monotonic version of one named tensor (value object)."""

    __slots__ = ("name", "version")

    def __init__(self, name: str, version: int = 0):
        self.name = str(name)
        self.version = int(version)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorVersion({self.name!r}, v{self.version})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TensorVersion)
            and self.name == other.name
            and self.version == other.version
        )

    def __hash__(self) -> int:
        return hash((self.name, self.version))


class Artifact:
    """One registered derived object and what it was built from.

    ``deps`` maps tensor name -> frozenset of tile ids (``None`` means
    the artifact depends on the whole tensor); ``seen`` records the
    tensor versions the artifact was last (re)built against.
    """

    __slots__ = ("artifact_id", "kind", "deps", "seen", "fresh")

    def __init__(
        self,
        artifact_id: str,
        kind: str,
        deps: dict[str, frozenset | None],
        seen: dict[str, int],
    ):
        self.artifact_id = artifact_id
        self.kind = kind
        self.deps = deps
        self.seen = seen
        self.fresh = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fresh" if self.fresh else "STALE"
        return f"Artifact({self.artifact_id!r}, {self.kind}, {state})"


_MISSING = object()


class DependencyTracker:
    """Thread-safe registry of tensor versions and dependent artifacts."""

    def __init__(self) -> None:
        self._versions: dict[str, int] = {}
        self._artifacts: dict[str, Artifact] = {}
        self._lock = threading.RLock()
        self.bumps = 0
        self.invalidations = 0

    # -- versions -------------------------------------------------------

    def version(self, name: str) -> TensorVersion:
        with self._lock:
            return TensorVersion(name, self._versions.get(name, 0))

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    # -- artifacts ------------------------------------------------------

    def register(
        self,
        artifact_id: str,
        kind: str,
        deps: Mapping[str, Iterable[int] | None],
    ) -> Artifact:
        """Record (or re-record) an artifact and its dependencies.

        ``deps`` maps each dependency tensor's name to the tile ids the
        artifact was derived from, or ``None`` for a whole-tensor
        dependency.  An artifact with an empty ``deps`` mapping is
        refused: nothing could ever invalidate it (the ``FSTC702``
        condition), so registering it is a programming error.
        """
        if not deps:
            raise StreamError(
                f"FSTC702: artifact {artifact_id!r} registered with no "
                "dependencies; it could never be invalidated"
            )
        norm: dict[str, frozenset | None] = {}
        for name, tiles in deps.items():
            norm[str(name)] = (
                None if tiles is None else frozenset(int(t) for t in tiles)
            )
        with self._lock:
            seen = {
                name: self._versions.setdefault(name, 0) for name in norm
            }
            artifact = Artifact(str(artifact_id), str(kind), norm, seen)
            self._artifacts[artifact.artifact_id] = artifact
            return artifact

    def unregister(self, artifact_id: str) -> bool:
        with self._lock:
            return self._artifacts.pop(artifact_id, None) is not None

    def bump(
        self, name: str, tiles: Iterable[int] | None = None
    ) -> list[str]:
        """Advance one tensor's version; returns invalidated artifact ids.

        ``tiles`` narrows the mutation to specific tile ids — an
        artifact depending on disjoint tiles of the same tensor stays
        fresh.  ``None`` means the whole tensor changed.
        """
        tile_set = None if tiles is None else frozenset(int(t) for t in tiles)
        hit: list[str] = []
        with self._lock:
            self._versions[name] = self._versions.get(name, 0) + 1
            self.bumps += 1
            version = self._versions[name]
            for artifact in self._artifacts.values():
                dep = artifact.deps.get(name, _MISSING)
                if dep is _MISSING:
                    continue
                artifact.seen[name] = version  # it has observed the bump...
                overlaps = (
                    dep is None or tile_set is None or bool(dep & tile_set)
                )
                if overlaps and artifact.fresh:
                    artifact.fresh = False  # ...and is invalidated by it
                    self.invalidations += 1
                    hit.append(artifact.artifact_id)
        return hit

    def refresh(self, artifact_id: str, deps: Mapping[str, Iterable[int] | None] | None = None) -> Artifact:
        """Mark an artifact rebuilt (optionally with new dependencies)."""
        with self._lock:
            artifact = self._artifacts.get(artifact_id)
            if artifact is None:
                raise StreamError(f"unknown artifact {artifact_id!r}")
            if deps is not None:
                return self.register(artifact_id, artifact.kind, deps)
            artifact.seen = {
                name: self._versions.get(name, 0) for name in artifact.deps
            }
            artifact.fresh = True
            return artifact

    def is_fresh(self, artifact_id: str) -> bool:
        with self._lock:
            artifact = self._artifacts.get(artifact_id)
            if artifact is None:
                raise StreamError(f"unknown artifact {artifact_id!r}")
            return artifact.fresh

    def assert_fresh(self, artifact_id: str) -> None:
        """Guard a read: raise :class:`StaleReadError` on a stale artifact."""
        with self._lock:
            artifact = self._artifacts.get(artifact_id)
            if artifact is None:
                raise StreamError(f"unknown artifact {artifact_id!r}")
            if not artifact.fresh:
                moved = [
                    f"{name} v{artifact.seen.get(name, 0)} != "
                    f"v{self._versions.get(name, 0)}"
                    for name in artifact.deps
                    if artifact.seen.get(name, 0) != self._versions.get(name, 0)
                ]
                raise StaleReadError(
                    f"FSTC701: artifact {artifact_id!r} ({artifact.kind}) "
                    "is stale: "
                    + (", ".join(moved) if moved else "invalidated dependency")
                )

    # -- introspection --------------------------------------------------

    def artifacts(self, kind: str | None = None) -> list[Artifact]:
        with self._lock:
            return [
                a for a in self._artifacts.values()
                if kind is None or a.kind == kind
            ]

    def stale_ids(self) -> list[str]:
        with self._lock:
            return sorted(
                a.artifact_id for a in self._artifacts.values() if not a.fresh
            )

    def stats(self) -> dict:
        with self._lock:
            return {
                "tensors": len(self._versions),
                "artifacts": len(self._artifacts),
                "stale": sum(
                    1 for a in self._artifacts.values() if not a.fresh
                ),
                "bumps": self.bumps,
                "invalidations": self.invalidations,
            }
