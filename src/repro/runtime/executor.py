"""The adaptive contraction runtime: cached plans, reused tables,
batched execution, and measurement-driven calibration.

``contract()`` recomputes everything on every call: it linearizes both
operands, runs Algorithm 7, builds both operands' tiled hash tables,
and only then contracts.  In a serving workload the same structural
problem — and frequently the very same operand tensor — recurs over and
over (the DLPNO pipeline contracts ``TE_vv`` against two different
partners back to back), so the runtime keeps three caches:

* a :class:`~repro.runtime.plan_cache.PlanCache` keyed by the problem's
  structural signature (skips Algorithm 7 on recurrence, optionally
  persisted across processes);
* an operand cache holding each recently-seen tensor's linearized form
  and tiled tables per (role, tile size) — a repeat call, or a batched
  neighbor sharing the operand, skips linearization *and* table
  construction;
* a :class:`~repro.runtime.calibrator.CostCalibrator` fed by every
  instrumented run, refitting the cost model toward the observed host.

All reuse is observable through the standard
:class:`~repro.analysis.counters.Counters` fields
(``plan_cache_hits``/``misses``, ``table_reuse_hits``/``table_builds``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.counters import Counters
from repro.backends.base import KernelBackend
from repro.backends.registry import resolve_backend
from repro.core.plan import ContractionSpec, LinearizedOperand
from repro.core.tiled_co import (
    TiledTables,
    build_tiled_tables,
    tiled_co_contract,
)
from repro.machine.specs import DESKTOP, MachineSpec
from repro.runtime.calibrator import CostCalibrator
from repro.runtime.plan_cache import PlanCache
from repro.runtime.signature import signature_for
from repro.runtime.store import KeyedStore
from repro.tensors.coo import COOTensor

__all__ = [
    "ContractionRuntime",
    "BatchExecutor",
    "BatchItem",
    "BatchReport",
    "RunRecord",
]


class _OperandEntry:
    """Cached derived state of one live tensor.

    Holds a strong reference to the tensor, so the ``id(tensor)`` key of
    its store entry can never be recycled by a new object while cached.
    """

    __slots__ = ("tensor", "linearized", "tables", "seconds_saved_source")

    def __init__(self, tensor: COOTensor):
        self.tensor = tensor
        # lin_key -> (LinearizedOperand, linearize_seconds)
        self.linearized: dict = {}
        # (lin_key, tile) -> (TiledTables, build_seconds)
        self.tables: dict = {}


def _lin_key(role: str, spec: ContractionSpec) -> tuple:
    """What the linearized form of one operand depends on.

    The left mapping is a function of the left shape and the sequence of
    contracted left modes; ditto on the right (the contraction-index
    linearizer's extents are the paired extents, equal on both sides by
    construction).  Two contractions agreeing on this key produce
    byte-identical linearizations for that operand.
    """
    if role == "L":
        return ("L", spec.left_shape, tuple(a for a, _ in spec.pairs))
    return ("R", spec.right_shape, tuple(b for _, b in spec.pairs))


@dataclass
class RunRecord:
    """What the runtime did for one contraction call."""

    name: str
    seconds: float
    output_nnz: int
    plan_source: str  # "planner" | "cache"
    accumulator: str
    tile: int
    tables_reused: tuple[bool, bool]
    seconds_saved: float  # measured cost of the skipped phases
    phase_seconds: dict = field(default_factory=dict)
    backend: str = "numpy"  # kernel backend that executed the call


class ContractionRuntime:
    """Adaptive wrapper around :func:`repro.core.contraction.contract`.

    Parameters
    ----------
    machine:
        Platform model used for planning (and calibrated against).
    plan_cache:
        A shared :class:`PlanCache`; built fresh when omitted
        (``cache_path``/``cache_size`` configure the private one).
    cache_path:
        JSON persistence file for the private plan cache.
    calibrate:
        Feed every run into the cost calibrator (cheap; on by default).
    n_workers:
        Worker threads handed to the kernel.
    operand_cache_size:
        How many distinct operand tensors keep their linearized forms
        and tiled tables alive.
    backend:
        Default kernel backend for every call: a registered name,
        ``"auto"`` (per-signature policy), an instance, or ``None``
        (``$REPRO_BACKEND`` → ``numpy``).  Overridable per call.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        *,
        plan_cache: PlanCache | None = None,
        cache_path=None,
        cache_size: int = 128,
        calibrate: bool = True,
        n_workers: int = 1,
        operand_cache_size: int = 8,
        backend: "str | KernelBackend | None" = None,
    ):
        self.machine = machine
        self.backend = backend
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else PlanCache(maxsize=cache_size, path=cache_path)
        )
        self.calibrator = CostCalibrator(machine=machine) if calibrate else None
        self.n_workers = int(n_workers)
        self.counters = Counters()
        # Running totals behind metrics(); callers that want per-call
        # records ask for them with ``return_record=True``.
        self._totals_lock = threading.Lock()
        self._calls = 0
        self._measured_seconds = 0.0
        self._seconds_saved = 0.0
        # id(tensor) -> _OperandEntry.  Pins (refcounted) exempt an
        # entry from eviction: a prepared network pins its hoisted
        # operands so churn from per-step intermediates cannot evict
        # the tables it spent time building.
        self._operands = KeyedStore(operand_cache_size)
        # Online autotuner hook; set via OnlineTuner.attach(runtime).
        # When present, default-parameter calls may be routed to a
        # challenger plan and every measured outcome is fed back.
        self.tuner = None

    # -- cache-aware pipeline pieces ------------------------------------

    def _operand(self, tensor: COOTensor) -> _OperandEntry:
        """The tensor's operand-cache entry, created on first sight.

        A hit requires ``entry.tensor is tensor`` — identity, not
        equality: COO comparison would cost as much as the
        linearization being skipped.
        """
        entry = self._operands.get_or_put(
            id(tensor), lambda: _OperandEntry(tensor)
        )
        if entry.tensor is not tensor:
            raise RuntimeError("operand cache key aliases a different tensor")
        return entry

    def _pin(self, tensor: COOTensor) -> None:
        # Pin before the entry exists, so no other thread's insert can
        # evict it between creation and pin.
        self._operands.pin(id(tensor))
        self._operand(tensor)

    def _linearized(
        self, tensor: COOTensor, role: str, spec: ContractionSpec
    ) -> tuple[LinearizedOperand, float]:
        """The deduplicated linearized operand, cached per tensor."""
        entry = self._operand(tensor)
        key = _lin_key(role, spec)
        hit = entry.linearized.get(key)
        if hit is not None:
            return hit[0], 0.0
        t0 = time.perf_counter()
        lin = (
            spec.linearize_left(tensor) if role == "L" else spec.linearize_right(tensor)
        )
        lin = lin.sum_duplicates()
        dt = time.perf_counter() - t0
        entry.linearized[key] = (lin, dt)
        return lin, dt

    def _tables(
        self,
        tensor: COOTensor,
        role: str,
        spec: ContractionSpec,
        operand: LinearizedOperand,
        tile: int,
        counters: Counters,
    ) -> tuple[TiledTables, bool, float]:
        """Tiled tables for one operand at one tile size, cached.

        Returns ``(tables, reused, seconds_saved)`` where
        ``seconds_saved`` is the measured construction (plus
        linearization) cost this call skipped.
        """
        entry = self._operand(tensor)
        key = (_lin_key(role, spec), int(tile))
        hit = entry.tables.get(key)
        if hit is not None:
            counters.table_reuse_hits += 1
            tables, build_seconds = hit
            lin_seconds = entry.linearized[key[0]][1]
            return tables, True, build_seconds + lin_seconds
        t0 = time.perf_counter()
        tables = build_tiled_tables(
            operand, tile, n_workers=self.n_workers, counters=counters
        )
        dt = time.perf_counter() - t0
        entry.tables[key] = (tables, dt)
        counters.table_builds += 1
        return tables, False, 0.0

    # -- the public call ------------------------------------------------

    def contract(
        self,
        left: COOTensor,
        right: COOTensor,
        pairs: Sequence[tuple[int, int]],
        *,
        name: str = "",
        accumulator: str = "auto",
        tile_size: int | None = None,
        counters: Counters | None = None,
        return_stats: bool = False,
        return_record: bool = False,
        canonical: bool = True,
        backend: "str | KernelBackend | None" = None,
    ):
        """Contract through the plan/table caches (FaSTCC method only).

        Mirrors :func:`repro.core.contraction.contract`'s interface and
        output; the difference is where the plan and the tiled tables
        come from.  ``return_record`` appends this call's
        :class:`RunRecord` to the return value; the runtime itself keeps
        only running totals (see :meth:`metrics`).
        ``backend`` overrides the runtime's default kernel backend for
        this call (``"auto"`` resolves from the problem signature).
        """
        call_counters = Counters()
        t_call = time.perf_counter()

        sig = signature_for(
            left, right, pairs, self.machine,
            accumulator=accumulator, tile_size=tile_size,
        )

        # Autotuning applies only to *championable* calls — ones where
        # every decision was left to the model.  A caller-pinned
        # accumulator/tile/backend is an explicit instruction, not a
        # decision the bandit owns.
        championable = (
            self.tuner is not None
            and accumulator == "auto"
            and tile_size is None
            and backend is None
        )
        champion_sig = sig
        explored_arm = None
        if championable:
            explored = self.tuner.route_pairwise(sig)
            if explored is not None:
                explored_arm = explored.arm_id
                accumulator = explored.accumulator
                tile_size = explored.tile_size
                backend = explored.backend
                if accumulator != "auto" or tile_size is not None:
                    # Re-key the call: the explored plan caches under
                    # its own signature, never the champion's entry.
                    sig = signature_for(
                        left, right, pairs, self.machine,
                        accumulator=accumulator, tile_size=tile_size,
                    )
            else:
                backend = self.tuner.preferred_backend(sig)

        kernel_backend = resolve_backend(
            backend if backend is not None else self.backend, signature=sig
        )
        spec = ContractionSpec(left.shape, right.shape, pairs)

        left_op, lin_l_s = self._linearized(left, "L", spec)
        right_op, lin_r_s = self._linearized(right, "R", spec)

        plan, hit = self.plan_cache.resolve(
            sig, spec, left_op.nnz, right_op.nnz, self.machine,
            accumulator=accumulator, tile_size=tile_size,
        )
        if hit:
            call_counters.plan_cache_hits += 1
        else:
            call_counters.plan_cache_misses += 1
        plan_source = "cache" if hit else "planner"

        if kernel_backend.has_native_path(left_op, right_op, plan):
            # The backend will run the whole contraction itself; tiled
            # tables would be built and then ignored, so skip them.
            reused_l = reused_r = False
            saved_l = saved_r = 0.0
            l_idx, r_idx, values, stats = tiled_co_contract(
                left_op, right_op, plan,
                n_workers=self.n_workers, counters=call_counters,
                backend=kernel_backend,
            )
        else:
            hl, reused_l, saved_l = self._tables(
                left, "L", spec, left_op, plan.tile_l, call_counters
            )
            hr, reused_r, saved_r = self._tables(
                right, "R", spec, right_op, plan.tile_r, call_counters
            )

            l_idx, r_idx, values, stats = tiled_co_contract(
                left_op, right_op, plan,
                n_workers=self.n_workers, counters=call_counters,
                tables=(hl, hr), backend=kernel_backend,
            )

        t0 = time.perf_counter()
        if canonical:
            _, out = spec.canonical_output(l_idx, r_idx, values)
        else:
            out = spec.delinearize_output(l_idx, r_idx, values)
        stats.phase_seconds["delinearize"] = time.perf_counter() - t0
        stats.phase_seconds["linearize"] = lin_l_s + lin_r_s
        stats.output_nnz = out.nnz

        if self.calibrator is not None:
            self.calibrator.observe(plan, stats, call_counters)

        record = RunRecord(
            name=name,
            seconds=time.perf_counter() - t_call,
            output_nnz=out.nnz,
            plan_source=plan_source,
            accumulator=plan.accumulator,
            tile=plan.tile_l,
            tables_reused=(reused_l, reused_r),
            seconds_saved=saved_l + saved_r,
            phase_seconds=dict(stats.phase_seconds),
            backend=kernel_backend.name,
        )
        with self._totals_lock:
            self._calls += 1
            self._measured_seconds += record.seconds
            self._seconds_saved += record.seconds_saved
        self.counters.merge(call_counters)
        if counters is not None:
            counters.merge(call_counters)

        if championable:
            self.tuner.observe_pairwise(
                champion_sig, explored_arm, record.seconds
            )

        if return_stats and return_record:
            return out, stats, record
        if return_stats:
            return out, stats
        if return_record:
            return out, record
        return out

    # -- preparation (hoisted, pinned operand state) --------------------

    def prepare_pairwise(
        self,
        left: COOTensor,
        right: COOTensor,
        pairs: Sequence[tuple[int, int]],
        *,
        accumulator: str = "auto",
        tile_size: int | None = None,
        backend: "str | KernelBackend | None" = None,
        pin: bool = True,
    ) -> dict:
        """Precompute everything invariant about one pairwise problem.

        Linearizes both operands, resolves (and caches) the Algorithm 7
        plan, and builds both tiled tables — exactly the artifacts a
        later :meth:`contract` on the same tensors would build — then
        pins both operands so LRU churn cannot evict them.  Callers
        must balance every pin with :meth:`unpin_operand`.
        """
        sig = signature_for(
            left, right, pairs, self.machine,
            accumulator=accumulator, tile_size=tile_size,
        )
        kernel_backend = resolve_backend(
            backend if backend is not None else self.backend, signature=sig
        )
        spec = ContractionSpec(left.shape, right.shape, pairs)
        if pin:
            self._pin(left)
            self._pin(right)
        left_op, _ = self._linearized(left, "L", spec)
        right_op, _ = self._linearized(right, "R", spec)
        plan, _ = self.plan_cache.resolve(
            sig, spec, left_op.nnz, right_op.nnz, self.machine,
            accumulator=accumulator, tile_size=tile_size,
        )
        built = 0
        if not kernel_backend.has_native_path(left_op, right_op, plan):
            counters = Counters()
            self._tables(left, "L", spec, left_op, plan.tile_l, counters)
            self._tables(right, "R", spec, right_op, plan.tile_r, counters)
            built = counters.table_builds
            self.counters.merge(counters)
        return {
            "tables_built": built,
            "backend": kernel_backend.name,
            "pinned": bool(pin),
        }

    def prepare_operand(
        self,
        tensor: COOTensor,
        role: str,
        other_shape: Sequence[int],
        pairs: Sequence[tuple[int, int]],
        *,
        pin: bool = True,
    ) -> None:
        """Pre-linearize one side when its partner is not yet known.

        The linearized form depends only on this side's shape and the
        contracted-mode sequence (see :func:`_lin_key`), so it can be
        hoisted even when the partner is an intermediate that will only
        exist mid-execution; the partner's *shape* is statically known
        from the plan.  Tables are left to first execution (their tile
        size depends on both operands' nnz) — pinning keeps them alive
        once built.
        """
        if role == "L":
            spec = ContractionSpec(tensor.shape, tuple(other_shape), pairs)
        else:
            spec = ContractionSpec(tuple(other_shape), tensor.shape, pairs)
        if pin:
            self._pin(tensor)
        self._linearized(tensor, role, spec)

    def unpin_operand(self, tensor: COOTensor) -> None:
        """Balance one :meth:`prepare_pairwise`/:meth:`prepare_operand`
        pin; at refcount zero the operand rejoins normal LRU."""
        self._operands.unpin(id(tensor))

    # -- maintenance ----------------------------------------------------

    def clear_operand_cache(self) -> None:
        """Drop cached linearizations and tables (plans are kept)."""
        self._operands.clear()

    def invalidate_operand(self, tensor: COOTensor) -> bool:
        """Drop one tensor's cached linearizations and tiled tables.

        The streaming invalidation hook: after a delta replaces a
        tensor object, its cached derived state must not be served
        again (pins included — a pinned stale table is still stale).
        Returns whether anything was dropped.
        """
        entry = self._operands.peek(id(tensor))
        if entry is None or entry.tensor is not tensor:
            return False
        return self._operands.invalidate(id(tensor))

    def flush(self):
        """Persist the plan cache to its configured path, if any."""
        return self.plan_cache.flush()

    def warm_start(self, path) -> int:
        """Merge persisted Algorithm 7 decisions into the plan cache.

        The cross-process half of plan-cache reuse: a shard (or any
        fresh runtime) loads another process's exported cache and its
        first call on a covered signature is already warm.  Returns the
        number of entries in the file; corruption is a recorded no-op.
        """
        return self.plan_cache.load(path)

    def export_plans(self, path) -> str:
        """Write the current plan cache to ``path`` (atomic JSON)."""
        return self.plan_cache.save(path)

    def metrics(self) -> dict:
        """Aggregate runtime metrics (counter-derived, JSON-friendly)."""
        c = self.counters
        plan_total = c.plan_cache_hits + c.plan_cache_misses
        table_total = c.table_reuse_hits + c.table_builds
        with self._totals_lock:
            calls = self._calls
            measured = self._measured_seconds
            saved = self._seconds_saved
        return {
            "calls": calls,
            "plan_cache_hits": c.plan_cache_hits,
            "plan_cache_misses": c.plan_cache_misses,
            "plan_hit_rate": c.plan_cache_hits / plan_total if plan_total else 0.0,
            "table_reuse_hits": c.table_reuse_hits,
            "table_builds": c.table_builds,
            "table_reuse_rate": (
                c.table_reuse_hits / table_total if table_total else 0.0
            ),
            "operands_pinned": self._operands.pinned_count(),
            "measured_seconds": measured,
            "seconds_saved": saved,
            "estimated_speedup": (
                (measured + saved) / measured if measured > 0 else 1.0
            ),
        }


@dataclass(frozen=True)
class BatchItem:
    """One contraction in a batched sequence."""

    left: COOTensor
    right: COOTensor
    pairs: tuple[tuple[int, int], ...]
    name: str = ""

    @classmethod
    def coerce(cls, item) -> "BatchItem":
        if isinstance(item, BatchItem):
            return item
        left, right, pairs = item
        return cls(left, right, tuple((int(a), int(b)) for a, b in pairs))


@dataclass
class BatchReport:
    """Per-item records plus aggregate reuse metrics for one batch."""

    records: list[RunRecord]
    metrics: dict
    outputs: list[COOTensor]

    def summary(self) -> str:
        m = self.metrics
        lines = []
        for r in self.records:
            reuse = "+".join(
                side for side, hit in zip("LR", r.tables_reused) if hit
            ) or "-"
            lines.append(
                f"  {r.name or '(unnamed)':<12} plan={r.plan_source:<7} "
                f"acc={r.accumulator:<6} tables_reused={reuse:<3} "
                f"nnz={r.output_nnz:<9} {r.seconds:8.4f}s"
                + (f" (saved {r.seconds_saved:.4f}s)" if r.seconds_saved else "")
            )
        lines.append(
            f"plan cache: {m['plan_cache_hits']} hits / "
            f"{m['plan_cache_misses']} misses "
            f"(hit rate {m['plan_hit_rate']:.0%})"
        )
        lines.append(
            f"tiled tables: {m['table_reuse_hits']} reused / "
            f"{m['table_builds']} built "
            f"(reuse rate {m['table_reuse_rate']:.0%})"
        )
        lines.append(
            f"batch time {m['measured_seconds']:.4f}s, work skipped "
            f"{m['seconds_saved']:.4f}s (estimated speedup "
            f"{m['estimated_speedup']:.2f}x)"
        )
        return "\n".join(lines)


class BatchExecutor:
    """Run a sequence of contractions through one shared runtime.

    Consecutive items that share an operand tensor (the DLPNO pipeline's
    shape: ``TE_vv`` feeds both the ``vvoo`` and ``vvov`` integrals)
    reuse its linearized form and tiled tables; recurring structural
    problems reuse their plans.  The report carries per-item records and
    the aggregate hit-rate/speedup metrics.
    """

    def __init__(self, runtime: ContractionRuntime | None = None, **runtime_kw):
        self.runtime = (
            runtime if runtime is not None else ContractionRuntime(**runtime_kw)
        )

    def run(self, items: Sequence) -> BatchReport:
        items = [BatchItem.coerce(it) for it in items]
        outputs, records = [], []
        for k, item in enumerate(items):
            out, record = self.runtime.contract(
                item.left, item.right, item.pairs,
                name=item.name or f"step{k}", return_record=True,
            )
            outputs.append(out)
            records.append(record)
        return BatchReport(
            records=records, metrics=self.runtime.metrics(), outputs=outputs
        )
