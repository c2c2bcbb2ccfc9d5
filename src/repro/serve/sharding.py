"""Consistent-hash signature routing for process-sharded serving.

The sharded front end (:mod:`repro.serve.router`) needs a stable map
from a request's structural signature key (the same
:class:`~repro.runtime.signature.ProblemSignature` /
:class:`~repro.network.plan.NetworkSignature` key micro-batching groups
by) onto N shard processes.  Consistent hashing gives that map three
properties the serving shape depends on:

* **signature affinity** — a given signature always routes to the same
  shard, so each shard sees a stable signature subset and its private
  plan cache converges to ~100% hit rate (signature affinity is PR 5's
  micro-batching generalized across processes);
* **minimal movement** — adding or removing a shard (scale-out,
  failure) remaps only the keys owned by the affected shard's ring
  arcs, so surviving shards keep their warm caches;
* **weighted placement** — per-shard weights scale the virtual-node
  count, which is the knob the load-driven rebalancing hook turns when
  the queue-depth/SLO metrics report a skewed ring.

The ring hashes with BLAKE2b (seeded only by the shard id and virtual
node index), so placement is deterministic across processes and runs —
a router restart routes every signature exactly as before.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, Mapping, Sequence

from repro.errors import ConfigError

__all__ = [
    "HashRing",
    "ring_shares",
    "suggest_weights",
]

#: Default virtual nodes per unit of shard weight.  128 points per
#: shard keeps the expected per-shard share within a few percent of
#: fair for realistic shard counts while the ring stays tiny.
DEFAULT_REPLICAS = 128

#: Weight clamp for rebalancing: a shard can be asked to take between
#: a quarter and four times its fair share, never dropped to zero
#: (dropping is the failure path, not the rebalancing path).
MIN_WEIGHT = 0.25
MAX_WEIGHT = 4.0


def _hash64(text: str) -> int:
    """Deterministic 64-bit point for one ring label."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Weighted consistent-hash ring over shard identifiers.

    Parameters
    ----------
    shards:
        Initial shard identifiers (any hashable with a stable ``str``
        form — the router uses integer shard ids).
    replicas:
        Virtual nodes per unit weight (see :data:`DEFAULT_REPLICAS`).
    weights:
        Optional per-shard weight map; missing shards default to 1.0.
    """

    def __init__(
        self,
        shards: Iterable[Hashable] = (),
        *,
        replicas: int = DEFAULT_REPLICAS,
        weights: Mapping[Hashable, float] | None = None,
    ):
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._weights: dict[Hashable, float] = {}
        self._points: list[tuple[int, str, Hashable]] = []
        for shard in shards:
            weight = 1.0 if weights is None else float(weights.get(shard, 1.0))
            self.add_shard(shard, weight=weight)

    # -- membership -----------------------------------------------------

    @property
    def shards(self) -> list[Hashable]:
        """Current members, in insertion order."""
        return list(self._weights)

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, shard: Hashable) -> bool:
        return shard in self._weights

    def weight(self, shard: Hashable) -> float:
        return self._weights[shard]

    def _vnodes(self, weight: float) -> int:
        return max(1, round(self.replicas * weight))

    def add_shard(self, shard: Hashable, *, weight: float = 1.0) -> None:
        """Add (or re-weight) one shard; only its own points move."""
        if not weight > 0:
            raise ConfigError(f"shard weight must be > 0, got {weight}")
        if shard in self._weights:
            self.remove_shard(shard)
        self._weights[shard] = float(weight)
        for k in range(self._vnodes(weight)):
            label = f"{shard}#{k}"
            point = (_hash64(label), label, shard)
            bisect.insort(self._points, point)

    def remove_shard(self, shard: Hashable) -> None:
        """Drop one shard; its keys redistribute over the survivors."""
        if shard not in self._weights:
            raise ConfigError(f"shard {shard!r} is not on the ring")
        del self._weights[shard]
        self._points = [p for p in self._points if p[2] != shard]

    def set_weights(self, weights: Mapping[Hashable, float]) -> None:
        """Re-weight existing shards (the rebalancing hook's entry)."""
        unknown = set(weights) - set(self._weights)
        if unknown:
            raise ConfigError(f"unknown shard(s) in weights: {sorted(map(str, unknown))}")
        for shard, weight in weights.items():
            self.add_shard(shard, weight=weight)

    # -- routing --------------------------------------------------------

    def route(self, key: str) -> Hashable:
        """The shard owning ``key`` (clockwise-next virtual node)."""
        if not self._points:
            raise ConfigError("cannot route on an empty ring")
        point = _hash64(key)
        idx = bisect.bisect_right(self._points, (point, "￿", None))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][2]

    def assignment(
        self, keys: Sequence[str]
    ) -> dict[Hashable, list[str]]:
        """Bucket ``keys`` by owning shard (empty shards included)."""
        out: dict[Hashable, list[str]] = {s: [] for s in self._weights}
        for key in keys:
            out[self.route(key)].append(key)
        return out


def ring_shares(
    ring: HashRing, keys: Sequence[str]
) -> dict[Hashable, float]:
    """Fraction of ``keys`` each shard owns (the balance view).

    This is what the rebalancing hook looks at:
    for a *declared* signature set the shares are exact, not
    statistical, so a pathological split is knowable before any load
    is offered.
    """
    assignment = ring.assignment(keys)
    total = max(1, len(keys))
    return {shard: len(owned) / total for shard, owned in assignment.items()}


def suggest_weights(
    ring: HashRing,
    loads: Mapping[Hashable, float],
    *,
    gain: float = 0.5,
) -> dict[Hashable, float]:
    """Load-driven weight suggestion for :meth:`HashRing.set_weights`.

    ``loads`` is any nonnegative per-shard load measure — queue depth,
    busy seconds, completed-request share — typically read off the
    aggregated SLO metrics.  Overloaded shards (load above the mean)
    get their weight scaled down, underloaded shards up, by
    ``(mean / load) ** gain``; the result is clamped to
    ``[MIN_WEIGHT, MAX_WEIGHT]`` so one bad sample can never empty a
    shard.  Shards with no load sample keep their weight.
    """
    if not 0 < gain <= 1:
        raise ConfigError(f"gain must be in (0, 1], got {gain}")
    sampled = {s: max(0.0, float(v)) for s, v in loads.items() if s in ring}
    out = {s: ring.weight(s) for s in ring.shards}
    if not sampled:
        return out
    mean = sum(sampled.values()) / len(sampled)
    if mean <= 0:
        return out
    for shard, load in sampled.items():
        # A zero-load shard is maximally underloaded: treat as one
        # epsilon sample rather than dividing by zero.
        ratio = mean / max(load, mean * 1e-3)
        weight = out[shard] * ratio**gain
        out[shard] = min(MAX_WEIGHT, max(MIN_WEIGHT, weight))
    return out
