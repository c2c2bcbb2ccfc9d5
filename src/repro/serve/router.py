"""Process-sharded serving front end: consistent-hash signature routing.

PR 5's :class:`~repro.serve.ContractionService` is thread-pooled, so
CPU-bound contraction load serializes on one GIL no matter how many
workers are configured.  :class:`ShardRouter` scales past that by
spawning N :mod:`shard worker <repro.serve.shard_worker>` processes —
each a full private service (own runtime, plan cache, bounded admission
queue) — and consistent-hashing every request's structural signature
key onto the ring of live shards (:mod:`repro.serve.sharding`).

Signature affinity is the point, not just the mechanism: a given
:class:`~repro.runtime.signature.ProblemSignature` /
``NetworkSignature`` always lands on the same shard, so each shard sees
a stable signature subset and its private plan cache converges to ~100%
hit rate — PR 5's micro-batching generalized across processes.

The router also owns the failure story:

* **bounded admission per shard** — at most ``max_in_flight`` requests
  outstanding per shard; excess arrivals shed immediately, so neither
  the IPC pipe nor the shard queue grows without bound;
* **death detection** — a liveness monitor polls shard processes; a
  dead shard is removed from the ring and its in-flight requests are
  **requeued** onto surviving shards with bounded retries (a request
  whose retries run out resolves ``failed``, never silently lost);
* **optional respawn** — with ``respawn=True`` a dead shard is
  restarted (warm-starting its plan cache from the persisted JSON when
  ``cache_dir`` is set) and rejoins the ring when it reports ready;
* **rebalancing hooks** — :meth:`ShardRouter.rebalance` feeds the
  per-shard queue-depth/SLO metrics into
  :func:`~repro.serve.sharding.suggest_weights` and re-weights the
  ring's virtual nodes.

Metrics from all shards merge into one exportable view
(:meth:`metrics_json`): the ``aggregate`` section is the associative
snapshot merge from :func:`repro.serve.slo.merge_metrics_json`, the
``shards`` section keeps the per-shard breakdown, and ``router`` adds
routing/failure counters.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import warnings
from dataclasses import dataclass, field

from repro.errors import ConfigError, ConfigWarning, SchedulerError
from repro.machine.specs import DESKTOP, MachineSpec
from repro.serve.request import (
    STATUS_FAILED,
    STATUS_SHED,
    Request,
    Response,
    Ticket,
)
from repro.serve.service import ServiceConfig
from repro.serve.shard_worker import ShardSpec, shard_main
from repro.serve.sharding import DEFAULT_REPLICAS, HashRing, suggest_weights
from repro.serve.slo import merge_metrics_json

__all__ = ["ShardedConfig", "ShardRouter"]


@dataclass(frozen=True)
class ShardedConfig:
    """Tunables of one :class:`ShardRouter`.

    ``max_in_flight`` is the router-side per-shard admission bound (the
    shard's own :class:`~repro.serve.queueing.AdmissionQueue` bounds a
    second time inside the process).  ``max_retries`` caps how many
    times one request may be requeued after shard deaths before it
    resolves ``failed``.  ``cache_dir`` enables plan-cache warm-start:
    shard ``k`` persists to ``<cache_dir>/plan_cache_shard<k>.json`` and
    reloads it on (re)start.
    """

    n_shards: int = 2
    service: ServiceConfig = field(default_factory=ServiceConfig)
    replicas: int = DEFAULT_REPLICAS
    max_in_flight: int = 64
    max_retries: int = 2
    respawn: bool = False
    cache_dir: str | None = None
    poll_interval_s: float = 0.05
    start_timeout_s: float = 120.0

    def __post_init__(self):
        if self.n_shards < 1:
            raise ConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight} "
                "(an unbounded router pipe defeats load shedding)"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


class _Shard:
    """Router-side state of one shard process (mutated under the router
    lock, except for queue operations which are thread-safe)."""

    __slots__ = (
        "shard_id", "process", "inbox", "outbox", "alive", "stopped",
        "generation", "in_flight", "high_water", "ready", "warm_entries",
        "final_metrics", "routed",
    )

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None
        self.inbox = None
        self.outbox = None
        self.alive = False
        self.stopped = False
        self.generation = 0
        self.in_flight: set[int] = set()
        self.high_water = 0
        self.ready = threading.Event()
        self.warm_entries = 0
        self.final_metrics: dict | None = None
        self.routed = 0


class _InFlight:
    """One accepted request awaiting its terminal response."""

    __slots__ = ("request", "ticket", "shard_id", "retries")

    def __init__(self, request: Request, ticket: Ticket, shard_id: int):
        self.request = request
        self.ticket = ticket
        self.shard_id = shard_id
        self.retries = 0


class ShardRouter:
    """Consistent-hash front end over N shard worker processes.

    Structurally broken configs raise :class:`ConfigError` when the
    :class:`ShardedConfig` is built.  A fleet wanting more cores than
    the host has (``n_shards * n_workers > os.cpu_count()``) draws
    an ``FSTC304`` :class:`~repro.errors.ConfigWarning`.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        config: ShardedConfig | None = None,
    ):
        self.machine = machine
        self.config = config if config is not None else ShardedConfig()
        n_shards = self.config.n_shards
        n_workers = self.config.service.n_workers
        cpus = os.cpu_count() or 1
        if n_shards > 1 and n_shards * n_workers > cpus:
            warnings.warn(
                f"FSTC304: {n_shards} shards x {n_workers} workers want "
                f"{n_shards * n_workers} cores but the host has {cpus}; "
                "shards will time-slice instead of scaling (size n_shards "
                "* n_workers at or below os.cpu_count())",
                ConfigWarning, stacklevel=2,
            )

        self._ctx = mp.get_context("spawn")
        self._shards: dict[int, _Shard] = {
            k: _Shard(k) for k in range(self.config.n_shards)
        }
        self.ring = HashRing(replicas=self.config.replicas)
        self._lock = threading.RLock()
        self._inflight: dict[int, _InFlight] = {}
        self._seq = 0
        self._started = False
        self._stopped = False
        self._shutdown = threading.Event()
        self._collectors: list[threading.Thread] = []
        self._monitor: threading.Thread | None = None
        self._metric_waits: dict[int, dict] = {}
        self._token = 0
        # failure-story counters (mutated under the lock)
        self.deaths = 0
        self.requeued = 0
        self.respawns = 0
        self.dropped = 0
        self.shed_at_router = 0

    # -- lifecycle ------------------------------------------------------

    def _cache_path(self, shard_id: int) -> str | None:
        if self.config.cache_dir is None:
            return None
        os.makedirs(self.config.cache_dir, exist_ok=True)
        return os.path.join(
            self.config.cache_dir, f"plan_cache_shard{shard_id}.json"
        )

    def _autotune_path(self, shard_id: int) -> str | None:
        """Per-shard autotune state file (one writer per file)."""
        if self.config.cache_dir is None or not self.config.service.autotune:
            return None
        os.makedirs(self.config.cache_dir, exist_ok=True)
        return os.path.join(
            self.config.cache_dir, f"autotune_shard{shard_id}.json"
        )

    def _spawn(self, shard: _Shard) -> None:
        # caller holds the lock
        spec = ShardSpec(
            shard_id=shard.shard_id,
            machine_name=self.machine.name,
            service=self.config.service,
            cache_path=self._cache_path(shard.shard_id),
            autotune_path=self._autotune_path(shard.shard_id),
        )
        # Fresh queues per generation: a hard-killed process can die while
        # holding its outbox's cross-process write lock, which would wedge
        # every later writer — so each shard gets a private outbox and a
        # respawn abandons the old (possibly corrupt) one outright.
        shard.inbox = self._ctx.Queue()
        shard.outbox = self._ctx.Queue()
        shard.ready.clear()
        shard.alive = True
        shard.stopped = False
        shard.generation += 1
        shard.process = self._ctx.Process(
            target=shard_main,
            args=(spec, shard.inbox, shard.outbox),
            name=f"repro-shard-{shard.shard_id}.{shard.generation}",
            daemon=True,
        )
        shard.process.start()
        collector = threading.Thread(
            target=self._collector_loop,
            args=(shard.shard_id, shard.generation, shard.outbox),
            name=f"shard-router-collect-{shard.shard_id}.{shard.generation}",
            daemon=True,
        )
        self._collectors.append(collector)
        collector.start()

    def start(self) -> "ShardRouter":
        """Spawn every shard and wait until all report ready."""
        if self._stopped:
            raise SchedulerError("a stopped router cannot be restarted")
        if self._started:
            return self
        self._started = True
        # Everything after the spawn loop runs under a BaseException
        # guard: a KeyboardInterrupt landing in the ready-wait would
        # otherwise leak N live shard processes.
        try:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="shard-router-monitor",
                daemon=True,
            )
            self._monitor.start()
            with self._lock:
                for shard in self._shards.values():
                    self._spawn(shard)
            deadline = time.monotonic() + self.config.start_timeout_s
            for shard in self._shards.values():
                remaining = deadline - time.monotonic()
                if not shard.ready.wait(max(0.0, remaining)):
                    raise SchedulerError(
                        f"shard {shard.shard_id} did not become ready "
                        f"within {self.config.start_timeout_s}s"
                    )
        except BaseException:
            self.close()
            raise
        return self

    def stop(self, *, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop every shard (draining admitted work by default)."""
        if not self._started or self._stopped:
            self._stopped = True
            self._shutdown.set()
            return
        self._stopped = True
        with self._lock:
            live = [s for s in self._shards.values() if s.alive]
            for shard in live:
                try:
                    shard.inbox.put(("stop",))
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + timeout
        for shard in live:
            shard.process.join(max(0.1, deadline - time.monotonic()))
        # Give the collector a chance to deliver the final responses and
        # "stopped" payloads that raced the joins.
        while time.monotonic() < deadline:
            with self._lock:
                if not self._inflight:
                    break
            time.sleep(0.02)
        self._shutdown.set()
        with self._lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
            for shard in self._shards.values():
                shard.alive = False
                shard.in_flight.clear()
        for entry in leftovers:
            entry.ticket.resolve(Response(
                name=entry.request.name, status=STATUS_SHED,
                detail="router stopped before a shard responded",
            ))
        for collector in self._collectors:
            collector.join(timeout=5.0)
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def close(self) -> None:
        """Reap every shard process without draining (idempotent).

        Safe at any point of the lifecycle — including after an
        interrupt that landed mid-:meth:`start`, when shards are
        spawned but not yet ready.  After the cooperative ``stop`` it
        hard-kills any process that still has not exited, so a caller's
        ``finally: router.close()`` can never leak children.
        """
        try:
            self.stop(drain=False, timeout=10.0)
        finally:
            for shard in list(self._shards.values()):
                process = shard.process
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    # -- client surface -------------------------------------------------

    def submit(self, request: Request) -> Ticket:
        """Route one request to its signature's shard; always resolves.

        Refused admissions (per-shard in-flight bound hit, no live
        shard) resolve the ticket ``shed`` immediately, mirroring the
        in-process service's contract.
        """
        if not self._started or self._stopped:
            raise SchedulerError(
                "router is not running; use `with router:` or start()"
            )
        ticket = Ticket()
        affinity = request.affinity_key(self.machine)
        with self._lock:
            if len(self.ring) == 0:
                self.shed_at_router += 1
                ticket.resolve(Response(
                    name=request.name, status=STATUS_SHED,
                    detail="no live shard on the ring",
                ))
                return ticket
            shard = self._shards[self.ring.route(affinity)]
            if len(shard.in_flight) >= self.config.max_in_flight:
                self.shed_at_router += 1
                ticket.resolve(Response(
                    name=request.name, status=STATUS_SHED,
                    detail=f"shard {shard.shard_id} at its in-flight bound "
                           f"({self.config.max_in_flight})",
                ))
                return ticket
            self._seq += 1
            uid = self._seq
            self._inflight[uid] = _InFlight(request, ticket, shard.shard_id)
            shard.in_flight.add(uid)
            shard.routed += 1
            if len(shard.in_flight) > shard.high_water:
                shard.high_water = len(shard.in_flight)
            shard.inbox.put(("req", uid, request))
        return ticket

    def call(
        self, request: Request, *, timeout: float | None = None
    ) -> Response:
        """Submit and block for the terminal response."""
        return self.submit(request).result(timeout)

    # -- failure handling ----------------------------------------------

    def kill_shard(self, shard_id: int) -> None:
        """Hard-kill one shard process (chaos/testing hook).

        The liveness monitor notices the death and runs the normal
        requeue/respawn path — this method only delivers the fault.
        """
        with self._lock:
            shard = self._shards[shard_id]
            process = shard.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=10.0)

    def _handle_death(self, shard: _Shard) -> None:
        with self._lock:
            if not shard.alive:
                return
            shard.alive = False
            self.deaths += 1
            if shard.shard_id in self.ring:
                self.ring.remove_shard(shard.shard_id)
            orphans = sorted(shard.in_flight)
            shard.in_flight.clear()
        for uid in orphans:
            self._requeue(uid, dead=shard.shard_id)
        if self.config.respawn and not self._stopped:
            with self._lock:
                self._spawn(shard)
                self.respawns += 1

    def _requeue(self, uid: int, *, dead: int) -> None:
        """Move one orphaned request to a surviving shard (bounded)."""
        with self._lock:
            entry = self._inflight.get(uid)
            if entry is None or entry.ticket.done():
                self._inflight.pop(uid, None)
                return
            entry.retries += 1
            if entry.retries > self.config.max_retries:
                self._inflight.pop(uid, None)
                self.dropped += 1
                entry.ticket.resolve(Response(
                    name=entry.request.name, status=STATUS_FAILED,
                    detail=f"shard {dead} died and retries are exhausted "
                           f"({self.config.max_retries})",
                ))
                return
            if len(self.ring) == 0:
                self._inflight.pop(uid, None)
                self.dropped += 1
                entry.ticket.resolve(Response(
                    name=entry.request.name, status=STATUS_FAILED,
                    detail=f"shard {dead} died with no survivor to requeue to",
                ))
                return
            affinity = entry.request.affinity_key(self.machine)
            target = self._shards[self.ring.route(affinity)]
            entry.shard_id = target.shard_id
            target.in_flight.add(uid)
            target.routed += 1
            self.requeued += 1
            target.inbox.put(("req", uid, entry.request))

    # -- background threads ---------------------------------------------

    def _collector_loop(
        self, shard_id: int, generation: int, outbox
    ) -> None:
        """Drain one shard generation's private outbox.

        The thread exits when the router shuts down or the shard is
        respawned (a newer generation owns a fresh queue; this one is
        abandoned because the killed process may have corrupted it).
        """
        import queue as _queue

        while True:
            try:
                message = outbox.get(timeout=self.config.poll_interval_s)
            except _queue.Empty:
                if self._shutdown.is_set():
                    return
                with self._lock:
                    if self._shards[shard_id].generation != generation:
                        return
                continue
            except (OSError, ValueError, EOFError):
                return
            self._dispatch(message)

    def _dispatch(self, message) -> None:
        kind = message[0]
        if kind == "resp":
            _, shard_id, uid, response = message
            with self._lock:
                entry = self._inflight.pop(uid, None)
                self._shards[shard_id].in_flight.discard(uid)
            if entry is not None:
                entry.ticket.resolve(response)
        elif kind == "ready":
            _, shard_id, warm_entries = message
            with self._lock:
                shard = self._shards[shard_id]
                shard.warm_entries = warm_entries
                if shard.shard_id not in self.ring and not self._stopped:
                    self.ring.add_shard(shard.shard_id)
                shard.ready.set()
        elif kind == "metrics":
            _, shard_id, token, payload = message
            with self._lock:
                wait = self._metric_waits.get(token)
            if wait is not None:
                wait["got"][shard_id] = payload
                if set(wait["got"]) >= wait["want"]:
                    wait["event"].set()
        elif kind in ("flushed", "invalidated"):
            _, shard_id, token, payload = message
            with self._lock:
                wait = self._metric_waits.get(token)
            if wait is not None:
                wait["got"][shard_id] = payload
                if set(wait["got"]) >= wait["want"]:
                    wait["event"].set()
        elif kind == "stopped":
            _, shard_id, payload = message
            with self._lock:
                shard = self._shards[shard_id]
                shard.final_metrics = payload
                shard.stopped = True

    def _monitor_loop(self) -> None:
        while not self._shutdown.wait(self.config.poll_interval_s):
            if self._stopped:
                continue
            dead = []
            with self._lock:
                for shard in self._shards.values():
                    if (
                        shard.alive
                        and shard.process is not None
                        and not shard.process.is_alive()
                        and not shard.stopped
                    ):
                        dead.append(shard)
            for shard in dead:
                self._handle_death(shard)

    # -- shard fan-out helpers ------------------------------------------

    def _broadcast(self, kind: str, *extra, timeout: float = 10.0) -> dict:
        """Send ``(kind, token, *extra)`` to every live shard; gather
        replies keyed by shard id."""
        with self._lock:
            live = [s for s in self._shards.values() if s.alive]
            self._token += 1
            token = self._token
            wait = {
                "want": {s.shard_id for s in live},
                "got": {},
                "event": threading.Event(),
            }
            self._metric_waits[token] = wait
            for shard in live:
                try:
                    shard.inbox.put((kind, token) + extra)
                except (OSError, ValueError):
                    wait["want"].discard(shard.shard_id)
        if not wait["want"]:
            wait["event"].set()
        wait["event"].wait(timeout)
        with self._lock:
            self._metric_waits.pop(token, None)
        return dict(wait["got"])

    def flush(self, *, timeout: float = 10.0) -> dict:
        """Persist every live shard's plan cache (warm-start files).

        With autotuning enabled the broadcast also flushes each shard's
        learned autotune state to its per-shard file."""
        return self._broadcast("flush", timeout=timeout)

    def invalidate_stream(self, name: str, *, timeout: float = 10.0) -> dict:
        """Drop one stream's cached state on *every* live shard.

        Stream requests have shard affinity (one shard owns a stream's
        state), but ownership can move — a death/respawn or a
        ring rebalance reroutes the stream while the old shard still
        holds its incremental state.  Broadcasting the invalidation
        reaches any such orphan, so no shard keeps serving a stale
        cached output for a stream it no longer owns.  Returns
        ``{shard_id: streams_dropped}`` (1 on the holder, 0 elsewhere).
        """
        return self._broadcast("invalidate", name, timeout=timeout)

    def merged_autotune_state(self, save_to: str | None = None):
        """Fold every shard's persisted autotune state into one.

        Reads the per-shard ``autotune_shard<k>.json`` files (call
        :meth:`flush` — or stop the router — first so they are current)
        and merges them through the associative measurement-store merge;
        the result can seed any future process's warm start.  Returns
        the merged :class:`~repro.autotune.AutotuneState`, or ``None``
        when autotune persistence is not configured.
        """
        from repro.autotune import AutotuneState

        if self.config.cache_dir is None or not self.config.service.autotune:
            return None
        merged = AutotuneState(self.machine.name)
        found = False
        for shard_id in range(self.config.n_shards):
            path = self._autotune_path(shard_id)
            if path is None or not os.path.exists(path):
                continue
            shard_state = AutotuneState(self.machine.name)
            if shard_state.load(path):
                merged.merge(shard_state)
                found = True
        if not found:
            return None
        if save_to is not None:
            merged.save(save_to)
        return merged

    # -- metrics and rebalancing ----------------------------------------

    def queue_stats(self) -> dict:
        """Router-level admission stats (loadgen compatibility shape)."""
        with self._lock:
            per_shard = {
                str(s.shard_id): {
                    "depth": len(s.in_flight),
                    "high_water": s.high_water,
                    "routed": s.routed,
                    "alive": s.alive,
                }
                for s in self._shards.values()
            }
            return {
                "capacity": self.config.max_in_flight,
                "policy": "reject",
                "depth": len(self._inflight),
                "high_water": max(
                    (s.high_water for s in self._shards.values()), default=0
                ),
                "admitted": sum(s.routed for s in self._shards.values()),
                "rejected": self.shed_at_router,
                "evicted": 0,
                "per_shard": per_shard,
            }

    def metrics_json(self, *, timeout: float = 10.0) -> dict:
        """One document: merged aggregate + per-shard breakdown.

        Live shards are polled over IPC; shards that already stopped
        contribute the final snapshot they sent on exit.  The aggregate
        section is the associative snapshot merge, so it equals what a
        single unsharded service would have reported for the union of
        the traffic (modulo per-shard cache sizing).
        """
        snapshots = self._broadcast("metrics", timeout=timeout)
        with self._lock:
            for shard in self._shards.values():
                if shard.shard_id not in snapshots and shard.final_metrics:
                    snapshots[shard.shard_id] = shard.final_metrics
            router = {
                "n_shards": self.config.n_shards,
                "live_shards": sum(
                    1 for s in self._shards.values() if s.alive
                ),
                "ring_weights": {
                    str(s): self.ring.weight(s) for s in self.ring.shards
                },
                "deaths": self.deaths,
                "requeued": self.requeued,
                "respawns": self.respawns,
                "dropped": self.dropped,
                "shed_at_router": self.shed_at_router,
                "warm_entries": {
                    str(s.shard_id): s.warm_entries
                    for s in self._shards.values()
                },
            }
        ordered = [snapshots[k] for k in sorted(snapshots)]
        return {
            "router": router,
            "queue": self.queue_stats(),
            "aggregate": merge_metrics_json(ordered) if ordered else {},
            "shards": {str(k): snapshots[k] for k in sorted(snapshots)},
            "machine": self.machine.name,
        }

    def rebalance(
        self, loads: dict[int, float] | None = None, *, gain: float = 0.5
    ) -> dict[int, float]:
        """Load-driven ring re-weighting hook.

        ``loads`` defaults to each live shard's cumulative routed count
        (the queue-depth/SLO metrics view of who is busy); callers with
        better signals — per-shard p99, busy seconds from
        :meth:`metrics_json` — pass them in.  Returns the applied
        weights.
        """
        with self._lock:
            if loads is None:
                loads = {
                    s.shard_id: float(s.routed)
                    for s in self._shards.values() if s.alive
                }
            weights = suggest_weights(self.ring, loads, gain=gain)
            self.ring.set_weights(weights)
            return weights
