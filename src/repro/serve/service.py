"""The contraction service: admission, workers, deadlines, degradation.

:class:`ContractionService` fronts the adaptive runtime and the network
executor with the serving machinery the ROADMAP's traffic shape needs:

* **bounded admission** through an :class:`~repro.serve.queueing.AdmissionQueue`
  (policies ``reject`` / ``shed_oldest`` / ``block``) — overload becomes
  explicit ``shed`` responses or submitter backpressure, never unbounded
  queue growth;
* a **worker pool** draining the queue in micro-batches reordered by
  :func:`~repro.serve.batching.affinity_order`, so requests sharing a
  :class:`~repro.runtime.signature.ProblemSignature` (across users, not
  just within one caller) replay warm plans and tables through the one
  shared :class:`~repro.runtime.ContractionRuntime`;
* **deadline enforcement with a degradation ladder** — cooperative
  checks between pipeline stages, and when the remaining budget is
  smaller than ``degrade_margin`` times the request's model-predicted
  cost floor, the worker steps down the ladder instead of running the
  full pipeline:

  1. *cached-plan*: replay the plan cache entry for the request's
     signature (numerically identical to the full path — only the
     planning work is skipped);
  2. *cheap-path*: no cached plan — pairwise requests run under the
     directly-chosen sparse accumulator (skipping Algorithm 7's dense
     probe estimate), network requests take the left-to-right path
     (skipping DP/greedy path search).

  Either rung marks the response ``degraded``; a deadline that expires
  before execution yields ``timeout`` without burning kernel time.
* **SLO metrics** (:class:`~repro.serve.slo.ServiceMetrics`): per-stage
  latency histograms, terminal status counts, queue stats and the
  runtime/network cache hit rates, exported as one JSON document.

:class:`ServiceConfig` refuses unsafe settings when it is built
(``ConfigError`` naming ``FSTC301``, ``FSTC601`` or ``FSTC603``), so an
unbounded queue or a runaway exploration rate can not reach
production; settings that run but misbehave (``FSTC303``, ``602``,
``604``, ``703``) are emitted as :class:`~repro.errors.ConfigWarning`
when the service is built.
"""

from __future__ import annotations

import contextlib
import threading
import time
import warnings
from dataclasses import dataclass

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.errors import ConfigError, ConfigWarning, ReproError, SchedulerError
from repro.machine.cost_model import AccessCostModel, ProblemShape
from repro.machine.specs import DESKTOP, MachineSpec
from repro.network.executor import NetworkExecutor, StepResultCache
from repro.network.ir import TensorNetwork
from repro.network.optimize import build_plan, resolve_optimizer
from repro.network.plan import NetworkSignature
from repro.runtime.executor import ContractionRuntime
from repro.runtime.signature import signature_for
from repro.serve.batching import affinity_order
from repro.serve.queueing import BLOCK, POLICIES, AdmissionQueue
from repro.serve.request import (
    NETWORK,
    PAIRWISE,
    STREAM,
    STATUS_DEGRADED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    Job,
    Request,
    Response,
    Ticket,
)
from repro.serve.slo import ServiceMetrics

__all__ = ["ServiceConfig", "ContractionService", "cost_floor_seconds"]

#: Above this fraction of eligible traffic, exploration is the workload.
MAX_EXPLORE_RATE = 0.5

#: Above this staleness threshold the density model prices a patch at
#: most of a full recompute, so incremental bookkeeping stops paying.
MAX_SANE_STALENESS = 0.75


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`ContractionService`.

    ``degrade_margin`` scales the degradation trigger: a request enters
    the ladder when its remaining budget is below ``degrade_margin *
    cost_floor``.  ``force_degraded`` pins every request to the ladder
    regardless of budget — a test/bench knob for exercising the
    degraded paths deterministically.

    ``backend`` names the kernel backend the service's runtime executes
    on (``"numpy"`` reference, ``"scipy"``, ``"arrayapi"``, or
    ``"auto"`` for the per-signature policy; see
    :mod:`repro.backends`).  The default keeps served results
    bit-identical to direct ``contract()`` calls.

    ``cross_request_cse`` shares intermediate step results *across the
    network requests of one drained micro-batch*: each worker hands the
    batch a fresh :class:`~repro.network.executor.StepResultCache`, so
    two requests contracting the same subnetwork (verified by content
    digest) compute it once.  The cache dies with the batch — nothing
    leaks between batches or workers.

    ``autotune`` enables online bandit exploration
    (:mod:`repro.autotune`): a bounded fraction
    (``autotune_explore_rate``) of *eligible* requests — no deadline,
    not degraded, queue depth at most ``autotune_max_queue_depth`` —
    execute a challenger plan instead of the cached champion, and a
    challenger that wins by ``autotune_promote_margin`` over
    ``autotune_min_trials`` measured trials is promoted (with automatic
    rollback on regression).  ``autotune_state_path`` persists the
    learned state (calibrated weights, measurements, champions) across
    restarts; leaving it unset relearns from scratch every process
    (``FSTC602`` warns).

    Construction refuses a queue, pool or batch size below one
    (``FSTC301``), and with ``autotune`` an exploration rate outside
    ``(0, 0.5]`` (``FSTC601``) or a promotion margin that is not
    positive (``FSTC603``).  ``stream_staleness_threshold`` takes the
    same range check as :class:`~repro.streaming.IncrementalEngine`.
    """

    queue_capacity: int = 64
    policy: str = "reject"
    n_workers: int = 2
    max_batch: int = 8
    default_deadline_s: float | None = None
    default_priority: int = 0
    degrade_margin: float = 1.5
    force_degraded: bool = False
    drain_timeout_s: float = 0.05
    plan_cache_size: int = 128
    operand_cache_size: int = 16
    backend: str = "numpy"
    cross_request_cse: bool = True
    autotune: bool = False
    autotune_explore_rate: float = 0.05
    autotune_min_trials: int = 3
    autotune_promote_margin: float = 0.10
    autotune_state_path: str | None = None
    autotune_max_queue_depth: int = 4
    # Streaming (``stream`` request kind): fraction of the modeled full
    # recompute below which a delta is serviced by tile patching
    # (FSTC703 warns).
    stream_staleness_threshold: float = 0.35

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ConfigError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.degrade_margin < 0:
            raise ConfigError(
                f"degrade_margin must be >= 0, got {self.degrade_margin}"
            )
        from repro.backends.registry import known_backends
        from repro.streaming.engine import check_stream_limits

        if self.backend != "auto" and self.backend not in known_backends():
            raise ConfigError(
                f"backend must be 'auto' or one of {known_backends()}, "
                f"got {self.backend!r}"
            )
        for name in ("queue_capacity", "n_workers", "max_batch"):
            value = getattr(self, name)
            if value is None or value < 1:
                raise ConfigError(
                    f"FSTC301: {name} {value!r} leaves the admission queue "
                    "unbounded or undrainable; use a positive bound"
                )
        if self.autotune:
            rate = self.autotune_explore_rate
            if rate <= 0.0:
                raise ConfigError(
                    f"FSTC601: autotune_explore_rate {rate} never explores, "
                    "so the tuner can never learn; use a rate in "
                    f"(0, {MAX_EXPLORE_RATE}] or autotune=False"
                )
            if rate > MAX_EXPLORE_RATE:
                raise ConfigError(
                    f"FSTC601: autotune_explore_rate {rate} makes "
                    "exploration the workload; keep it at or below "
                    f"{MAX_EXPLORE_RATE}"
                )
            if self.autotune_promote_margin <= 0.0:
                raise ConfigError(
                    f"FSTC603: autotune_promote_margin "
                    f"{self.autotune_promote_margin} promotes on any mean "
                    "difference, so noise would oscillate the champion"
                )
        check_stream_limits(self.stream_staleness_threshold)


def _warn_config(config: ServiceConfig, machine: MachineSpec) -> None:
    """Warn (:class:`~repro.errors.ConfigWarning`) about what ``config``
    does wrong on ``machine`` (``FSTC303``/``602``/``604``/``703``)."""
    found = []
    if config.n_workers > machine.n_cores:
        found.append(
            f"FSTC303: {config.n_workers} workers oversubscribe "
            f"{machine.name}'s {machine.n_cores} cores; size the pool at or "
            "below the core count the cost model was calibrated for"
        )
    if config.autotune and config.autotune_state_path is None:
        found.append(
            "FSTC602: learned autotune state is not persisted; every "
            "restart relearns from zero and shard workers cannot "
            "warm-start (set autotune_state_path or the router's cache_dir)"
        )
    if config.autotune and config.autotune_min_trials < 2:
        found.append(
            f"FSTC604: trials floor {config.autotune_min_trials} promotes "
            "or rolls back on a single wall-clock sample; set "
            "autotune_min_trials to at least 2"
        )
    if config.stream_staleness_threshold > MAX_SANE_STALENESS:
        found.append(
            f"FSTC703: staleness threshold "
            f"{config.stream_staleness_threshold} patches even when the "
            "density model prices the patch at more than "
            f"{MAX_SANE_STALENESS:.0%} of a full recompute; keep "
            f"stream_staleness_threshold at or below {MAX_SANE_STALENESS}"
        )
    for message in found:
        warnings.warn(message, ConfigWarning, stacklevel=3)


def _pairwise_floor(request, machine: MachineSpec) -> float:
    """Modeled seconds for one pairwise contraction at the planned tiling."""
    spec = ContractionSpec(
        tuple(request.left.shape), tuple(request.right.shape),
        list(request.pairs),
    )
    L, R, C = max(1, spec.L), max(1, spec.R), max(1, spec.C)
    nnz_l, nnz_r = request.left.nnz, request.right.nnz
    # The planner only consumes L, R and C, so the matrix form of the
    # linearized problem plans exactly like the request.
    plan = choose_plan(
        ContractionSpec((L, C), (C, R), [(1, 0)]), nnz_l, nnz_r, machine
    )
    model = AccessCostModel(
        ProblemShape(L, R, C, max(0, nnz_l), max(0, nnz_r)), machine
    )
    estimate = model.tiled_co(plan.tile_l, plan.tile_r)
    # Each retrieved payload element feeds one multiply-accumulate, so
    # the data volume doubles as the update count (Section 3.4's proxy).
    return model.estimated_seconds(estimate, estimate.data_volume)


def cost_floor_seconds(request, machine: MachineSpec) -> float:
    """Optimistic modeled execution seconds for one service request.

    The same Section 5.1/5.3 arithmetic Algorithm 7 runs on: a pairwise
    request is priced through
    :class:`~repro.machine.cost_model.AccessCostModel` at the planned
    tiling, a network request by the modeled total of the cheap
    left-to-right path.  Returns 0.0 when the model cannot price the
    request (no floor to enforce is the safe direction for a floor).
    """
    try:
        if request.kind == PAIRWISE:
            return _pairwise_floor(request, machine)
        network = TensorNetwork.parse(request.subscripts, request.operands)
        return float(build_plan(network, machine, "left").est_total_cost)
    except Exception:  # noqa: BLE001 - unpriceable requests have no floor
        return 0.0


class ContractionService:
    """Concurrent contraction serving over one shared runtime.

    Parameters
    ----------
    machine:
        Platform model for planning, affinity signatures and the cost
        floor.
    config:
        A :class:`ServiceConfig`; defaults when omitted.
    runtime:
        A shared :class:`ContractionRuntime` (built fresh from the
        config's cache sizes when omitted).
    executor:
        A shared :class:`NetworkExecutor`; when omitted, one is built
        *over the same runtime*, so network steps and pairwise requests
        hit the same plan/table caches.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        config: ServiceConfig | None = None,
        *,
        runtime: ContractionRuntime | None = None,
        executor: NetworkExecutor | None = None,
    ):
        self.machine = machine
        self.config = config if config is not None else ServiceConfig()
        _warn_config(self.config, machine)
        self.runtime = runtime if runtime is not None else ContractionRuntime(
            machine=machine,
            cache_size=self.config.plan_cache_size,
            operand_cache_size=self.config.operand_cache_size,
            backend=self.config.backend,
        )
        self.executor = executor if executor is not None else NetworkExecutor(
            machine=machine, runtime=self.runtime
        )
        self.tuner = None
        if self.config.autotune:
            from repro.autotune import OnlineTuner, TunerConfig

            self.tuner = OnlineTuner(machine, TunerConfig(
                explore_rate=self.config.autotune_explore_rate,
                min_trials=self.config.autotune_min_trials,
                promote_margin=self.config.autotune_promote_margin,
                state_path=self.config.autotune_state_path,
            )).attach(self.runtime)
        # Streaming engine, created on first stream request.  One lock
        # serializes all stream operations: deltas against one stream
        # are order-sensitive, and the engine's state is shared across
        # the worker pool.
        self._stream_engine = None
        self._stream_lock = threading.Lock()
        self.queue = AdmissionQueue(
            self.config.queue_capacity, self.config.policy
        )
        self.metrics = ServiceMetrics()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._floors: dict[str, float] = {}
        self._floors_lock = threading.Lock()
        self._workers: list[threading.Thread] = []
        self._started = False
        self._stopped = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ContractionService":
        """Spawn the worker pool (idempotent until :meth:`stop`)."""
        if self._stopped:
            raise SchedulerError("a stopped service cannot be restarted")
        if not self._started:
            self._started = True
            for k in range(self.config.n_workers):
                t = threading.Thread(
                    target=self._worker_loop,
                    name=f"serve-worker-{k}",
                    daemon=True,
                )
                t.start()
                self._workers.append(t)
        return self

    def stop(self, *, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Close admission and wind the pool down.

        ``drain=True`` (default) lets workers finish every admitted
        request; ``drain=False`` sheds whatever is still queued.
        """
        if not self._started or self._stopped:
            self._stopped = True
            self.queue.close()
            return
        self._stopped = True
        self.queue.close()
        if not drain:
            for job in self.queue.drain_all():
                self._finish(job, Response(
                    name=job.request.name, status=STATUS_SHED,
                    detail="service stopped before execution",
                ), arrival=job.arrival)
        for t in self._workers:
            t.join(timeout)
        self._workers.clear()
        if self.tuner is not None:
            self.tuner.flush()

    def __enter__(self) -> "ContractionService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def close(self) -> None:
        """Tear down without draining (idempotent, interrupt-safe).

        The CLI calls this from a ``finally`` so a KeyboardInterrupt
        still sheds queued work and winds down worker threads; the
        sharded front end's :meth:`ShardRouter.close` additionally
        reaps shard processes.
        """
        self.stop(drain=False, timeout=5.0)

    @property
    def running(self) -> bool:
        return self._started and not self._stopped

    # -- client surface -------------------------------------------------

    def submit(self, request: Request) -> Ticket:
        """Admit one request; always returns a ticket that resolves.

        A refused admission (full queue under ``reject``, closed
        service, exhausted ``block`` wait) resolves the ticket as
        ``shed`` immediately; a ``shed_oldest`` eviction resolves the
        *victim's* ticket as ``shed``.
        """
        if not self._started:
            raise SchedulerError(
                "service is not running; use `with service:` or start()"
            )
        ticket = Ticket()
        now = time.monotonic()
        deadline_s = (
            request.deadline_s
            if request.deadline_s is not None
            else self.config.default_deadline_s
        )
        job = Job(
            request=request,
            ticket=ticket,
            seq=self._next_seq(),
            arrival=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
            affinity=request.affinity_key(self.machine),
        )
        self.metrics.note_submitted()
        block_timeout = deadline_s if self.config.policy == BLOCK else None
        admitted, evicted = self.queue.offer(job, timeout=block_timeout)
        if evicted is not None:
            self._finish(evicted, Response(
                name=evicted.request.name, status=STATUS_SHED,
                detail="evicted by a newer arrival (shed_oldest)",
            ), arrival=evicted.arrival)
        if not admitted:
            self._finish(job, Response(
                name=request.name, status=STATUS_SHED,
                detail=f"admission refused (policy {self.config.policy}, "
                       f"capacity {self.config.queue_capacity})",
            ), arrival=job.arrival)
        return ticket

    def call(
        self, request: Request, *, timeout: float | None = None
    ) -> Response:
        """Submit and block for the terminal response."""
        return self.submit(request).result(timeout)

    def invalidate_stream(self, name: str) -> int:
        """Drop one stream's cached state (idempotent, queue-bypassing).

        The sharded router fans this out to *every* shard: streams have
        shard affinity, but after a death/respawn or a ring rebalance a
        stream's state may survive on a shard that no longer owns it —
        broadcasting makes the invalidation reach any such orphan.
        Returns the number of streams dropped: 1, or 0 when this
        service holds no state for the stream.
        """
        with self._stream_lock:
            if self._stream_engine is None:
                return 0
            return self._stream_engine.invalidate(name)

    # -- metrics --------------------------------------------------------

    def metrics_json(self) -> dict:
        """One JSON document covering the whole serving stack."""
        payload = self.metrics.to_json()
        payload["queue"] = self.queue.stats()
        payload["runtime"] = self.runtime.metrics()
        payload["network"] = self.executor.metrics()
        payload["machine"] = self.machine.name
        if self.tuner is not None:
            payload["autotune"] = self.tuner.metrics()
        with self._stream_lock:
            if self._stream_engine is not None:
                payload["streaming"] = self._stream_engine.metrics()
        return payload

    # -- internals ------------------------------------------------------

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    def _cost_floor(self, job: Job) -> float:
        """Memoized model cost floor per affinity key."""
        with self._floors_lock:
            floor = self._floors.get(job.affinity)
        if floor is None:
            floor = cost_floor_seconds(job.request, self.machine)
            with self._floors_lock:
                self._floors[job.affinity] = floor
        return floor

    def _worker_loop(self) -> None:
        while True:
            jobs = self.queue.drain(
                self.config.max_batch, timeout=self.config.drain_timeout_s
            )
            if jobs:
                batch_cache = (
                    StepResultCache() if self.config.cross_request_cse
                    else None
                )
                for job in affinity_order(jobs):
                    self._process(job, batch_cache=batch_cache)
                continue
            if self.queue.closed:
                return

    def _finish(
        self, job: Job, response: Response, *, arrival: float | None = None
    ) -> None:
        if arrival is not None and "total" not in response.timings:
            response.timings["total"] = time.monotonic() - arrival
        self.metrics.observe(response)
        job.ticket.resolve(response)

    def _process(
        self, job: Job, *, batch_cache: StepResultCache | None = None
    ) -> None:
        request = job.request
        now = time.monotonic()
        timings = {"queue_wait": now - job.arrival}

        # Stage check 1: a dead-on-arrival deadline skips execution.
        if job.deadline_at is not None and now >= job.deadline_at:
            self._finish(job, Response(
                name=request.name, status=STATUS_TIMEOUT,
                detail="deadline expired while queued",
                timings=timings,
            ), arrival=job.arrival)
            return

        # Stage check 2: decide full pipeline vs. degradation ladder.
        degrade = self.config.force_degraded
        if not degrade and job.deadline_at is not None:
            remaining = job.deadline_at - now
            degrade = (
                remaining < self.config.degrade_margin * self._cost_floor(job)
            )

        # Exploration eligibility: never on degraded or deadline-carrying
        # requests, and only while the queue is shallow (exploring under
        # pressure spends latency the backlog cannot afford).
        bracket = contextlib.nullcontext()
        if self.tuner is not None:
            eligible = (
                not degrade
                and job.deadline_at is None
                and self.queue.depth <= self.config.autotune_max_queue_depth
            )
            bracket = self.tuner.serving(eligible=eligible)

        t0 = time.perf_counter()
        try:
            with bracket:
                if request.kind == PAIRWISE:
                    result, record, rung = self._run_pairwise(request, degrade)
                    plan_source = record.plan_source
                    accumulator, tile = record.accumulator, record.tile
                elif request.kind == NETWORK:
                    result, report, rung = self._run_network(
                        request, degrade, batch_cache=batch_cache
                    )
                    plan_source = report.plan_source
                    accumulator, tile = "", 0
                elif request.kind == STREAM:
                    result, plan_source, rung = self._run_stream(request)
                    accumulator, tile = "", 0
                else:
                    raise ConfigError(
                        f"unknown request kind {request.kind!r}"
                    )
        except ReproError as exc:
            timings["execute"] = time.perf_counter() - t0
            self._finish(job, Response(
                name=request.name, status=STATUS_FAILED,
                detail=f"{type(exc).__name__}: {exc}",
                timings=timings,
            ), arrival=job.arrival)
            return
        timings["execute"] = time.perf_counter() - t0

        # Stage check 3: work that outlived its budget reports timeout
        # (the late result stays attached for best-effort callers).
        status = STATUS_DEGRADED if rung else STATUS_OK
        detail = ""
        if job.deadline_at is not None and time.monotonic() > job.deadline_at:
            status = STATUS_TIMEOUT
            detail = "completed after the deadline (late result attached)"
        self._finish(job, Response(
            name=request.name, status=status, result=result, detail=detail,
            plan_source=plan_source, accumulator=accumulator, tile=tile,
            degrade_rung=rung, timings=timings,
        ), arrival=job.arrival)

    def _run_pairwise(self, request: Request, degrade: bool):
        """Execute a pairwise request, possibly down the ladder.

        Rung 1 replays the cached plan for the request's (auto)
        signature through the normal runtime path; rung 2 — no cached
        plan — directly selects the sparse accumulator, skipping the
        planner's dense-probe estimate.  The benign check-then-act race
        (an eviction between the lookup and the call) only costs one
        full planning pass.
        """
        rung = None
        kwargs: dict = {}
        if degrade:
            sig = signature_for(
                request.left, request.right, request.pairs, self.machine
            )
            if sig in self.runtime.plan_cache:
                rung = "cached-plan"
            else:
                rung = "cheap-path"
                kwargs["accumulator"] = "sparse"
        out, record = self.runtime.contract(
            request.left, request.right, request.pairs,
            name=request.name, return_record=True, **kwargs,
        )
        return out, record, rung

    def _run_stream(self, request: Request):
        """Execute one stream operation against the shared engine.

        Stream requests never enter the degradation ladder: a delta is
        already the cheap path when the staleness model allows it, and
        skipping a mutation (unlike skipping planning work) would
        change every later answer.  Returns ``(result, plan_source,
        rung)`` — ``plan_source`` reports ``incremental``/``full``/
        ``noop`` for deltas so callers can see which path serviced the
        mutation.
        """
        with self._stream_lock:
            engine = self._stream_engine
            if engine is None:
                from repro.streaming import IncrementalEngine

                engine = IncrementalEngine(
                    self.machine,
                    staleness_threshold=(
                        self.config.stream_staleness_threshold
                    ),
                    runtime=self.runtime,
                    backend=(
                        None if self.config.backend == "auto"
                        else self.config.backend
                    ),
                )
                self._stream_engine = engine
            op = request.stream_op
            if op == "register":
                out = engine.register(
                    request.stream_name, request.left, request.right,
                    request.pairs,
                )
                return out, "register", None
            if op == "delta":
                stats = engine.apply_delta(
                    request.stream_name, request.delta, side=request.side,
                )
                return engine.result(request.stream_name), stats.mode, None
            if op == "query":
                return engine.result(request.stream_name), "query", None
            # op == "invalidate" (Request.stream validated the op)
            dropped = engine.invalidate(request.stream_name)
            return None, f"invalidated:{dropped}", None

    def _run_network(
        self,
        request: Request,
        degrade: bool,
        *,
        batch_cache: StepResultCache | None = None,
    ):
        """Execute a network request, possibly down the ladder.

        Rung 1 replays a warm full-quality plan if one is cached for
        the auto optimizer; rung 2 takes the left-to-right path,
        skipping DP/greedy path search.  ``batch_cache`` shares
        digest-verified step results across the requests of one drained
        micro-batch (cross-request CSE).
        """
        rung = None
        optimizer = "auto"
        tune_key = None
        explored_arm = None
        if degrade:
            warm = self.executor.cached_plan(
                request.subscripts, request.operands, optimizer="auto"
            )
            if warm is not None:
                rung = "cached-plan"
            else:
                rung = "cheap-path"
                optimizer = "left"
        elif self.tuner is not None:
            network = TensorNetwork.parse(
                request.subscripts, request.operands
            )
            champion = resolve_optimizer("auto", network)
            tune_key = NetworkSignature.for_network(
                network, self.machine, champion,
                pipeline=self.executor.pipeline_key,
            ).key
            cand = self.tuner.route_network(tune_key, network, champion)
            if cand is not None:
                explored_arm = cand.arm_id
                optimizer = cand.optimizer
            else:
                preferred = self.tuner.preferred_network_optimizer(tune_key)
                if preferred is not None:
                    optimizer = preferred
        t0 = time.perf_counter()
        out, report = self.executor.contract(
            request.subscripts, *request.operands,
            optimizer=optimizer, return_report=True,
            cse_cache=batch_cache,
        )
        if tune_key is not None:
            self.tuner.observe_network(
                tune_key, explored_arm, time.perf_counter() - t0
            )
        return out, report, rung
