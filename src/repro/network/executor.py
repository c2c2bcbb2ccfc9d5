"""Network plan execution through the adaptive runtime.

The executor owns two caches:

* a network-level LRU mapping :class:`~repro.network.plan.NetworkSignature`
  keys to frozen :class:`~repro.network.plan.NetworkPlan` objects, so a
  recurring network request skips path optimization entirely; and
* a shared :class:`~repro.runtime.ContractionRuntime`, so every pairwise
  step of a warm network call hits the runtime's
  :class:`~repro.runtime.plan_cache.PlanCache` (and, when the very same
  tensors recur, its linearization/table caches too).

Intermediates are freed eagerly — each step drops its inputs from the
live list before the next step runs — and the executor reports the peak
intermediate footprint (nnz and bytes) alongside per-step records.

Plans are annotated by :func:`~repro.network.dataflow.annotate_plan`
before caching; the executor honors the annotations with runtime guards
that keep results bit-identical to the unannotated plan:

* ``dead`` steps short-circuit to an empty result once the plan's zero
  premise is confirmed against the live tensors;
* ``cse_of`` steps reuse the earlier step's retained result only when
  both inputs' content digests match the ones observed there;
* ``hoist_l``/``hoist_r`` feed :meth:`NetworkExecutor.prepare`, which
  builds and *pins* the invariant linearizations/tables up front.

A :class:`StepResultCache` extends the digest-guarded reuse across
requests: the serve micro-batcher hands one cache per drained batch to
every request in it, so structurally shared subnetworks with byte-equal
inputs compute once per batch.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.core.contraction import contract
from repro.errors import PlanError, WorkspaceLimitError
from repro.machine.specs import DESKTOP, MachineSpec
from repro.network.dataflow import (
    ANNOTATIONS,
    PlanGraph,
    annotate_plan,
    canonical_pattern,
)
from repro.network.ir import TensorNetwork
from repro.network.optimize import build_plan, resolve_optimizer
from repro.network.plan import NetworkPlan, NetworkSignature
from repro.runtime.executor import ContractionRuntime
from repro.runtime.store import KeyedStore
from repro.tensors.coo import COOTensor
from repro.tensors.linearize import ModeLinearizer
from repro.util.groups import segment_sum

__all__ = [
    "NetworkExecutor",
    "NetworkReport",
    "PreparedNetwork",
    "StepRecord",
    "StepResultCache",
    "contract_network",
    "default_executor",
    "outer_product",
    "sum_out_modes",
    "OUTER_PRODUCT_LIMIT",
]

#: Refuse outer products that would materialize more candidate nonzeros
#: than this (mirrors the kernel's task/workspace guards).
OUTER_PRODUCT_LIMIT = 1 << 26

def sum_out_modes(tensor: COOTensor, modes: Sequence[int]) -> COOTensor:
    """Sum a tensor over the given modes (marginalization)."""
    keep = [m for m in range(tensor.ndim) if m not in set(modes)]
    lin = ModeLinearizer([tensor.shape[m] for m in keep])
    flat = lin.encode(tensor.coords[keep, :])
    uniq, sums = segment_sum(flat, tensor.values)
    return COOTensor(
        lin.decode(uniq), sums, tuple(tensor.shape[m] for m in keep), check=False
    )


def outer_product(a: COOTensor, b: COOTensor) -> COOTensor:
    """Explicit sparse outer product: result modes are ``a``'s then
    ``b``'s; every nonzero pair contributes one (merged) coordinate."""
    n_pairs = a.nnz * b.nnz
    if n_pairs > OUTER_PRODUCT_LIMIT:
        raise WorkspaceLimitError(
            f"outer product would materialize {n_pairs} candidate "
            f"nonzeros (> {OUTER_PRODUCT_LIMIT})"
        )
    coords = np.concatenate(
        [np.repeat(a.coords, b.nnz, axis=1), np.tile(b.coords, a.nnz)],
        axis=0,
    )
    values = np.repeat(a.values, b.nnz) * np.tile(b.values, a.nnz)
    out = COOTensor(coords, values, tuple(a.shape) + tuple(b.shape), check=False)
    return out.sum_duplicates()


@dataclass
class StepRecord:
    """What one executed network step did."""

    index: int
    subscripts: str
    kind: str           # "contract" | "outer"
    seconds: float
    output_nnz: int
    plan_source: str    # "planner" | "cache" | "outer"
    backend: str = "numpy"  # kernel backend that executed the step


@dataclass
class NetworkReport:
    """Execution record of one network contraction."""

    plan: NetworkPlan
    plan_source: str    # "optimizer" | "cache"
    steps: list[StepRecord] = field(default_factory=list)
    seconds: float = 0.0
    peak_intermediate_nnz: int = 0
    peak_intermediate_bytes: int = 0
    output_nnz: int = 0

    def summary(self) -> str:
        lines = [
            f"network {self.plan.subscripts} "
            f"[{self.plan.optimizer}, plan {self.plan_source}]"
        ]
        for r in self.steps:
            lines.append(
                f"  step {r.index}: {r.subscripts:<24} {r.kind:<8} "
                f"plan={r.plan_source:<7} nnz={r.output_nnz:<9} "
                f"{r.seconds:8.4f}s"
            )
        lines.append(
            f"output nnz={self.output_nnz}, total {self.seconds:.4f}s, "
            f"peak intermediate {self.peak_intermediate_nnz} nnz "
            f"({self.peak_intermediate_bytes >> 10} KiB)"
        )
        return "\n".join(lines)


def _tensor_bytes(t: COOTensor) -> int:
    return int(t.coords.nbytes + t.values.nbytes)


def _content_digest(t: COOTensor) -> bytes:
    """Content identity of a COO tensor (order-sensitive, canonical
    tensors compare equal iff byte-equal).  This is the runtime guard
    behind every speculative-CSE reuse."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((t.shape, t.coords.dtype.str, t.values.dtype.str)).encode())
    h.update(np.ascontiguousarray(t.coords).tobytes())
    h.update(np.ascontiguousarray(t.values).tobytes())
    return h.digest()


class _DigestMemo:
    """Per-execution digest cache, identity-keyed.

    Holds a strong reference alongside each digest so a freed tensor's
    recycled ``id`` can never alias a stale entry.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: dict[int, tuple[COOTensor, bytes]] = {}

    def digest(self, t: COOTensor) -> bytes:
        hit = self._entries.get(id(t))
        if hit is not None and hit[0] is t:
            return hit[1]
        d = _content_digest(t)
        self._entries[id(t)] = (t, d)
        return d


class StepResultCache(KeyedStore):
    """Digest-keyed step-result memo for cross-request CSE.

    The serve micro-batcher creates one per drained batch and threads it
    through every request's execution: a step whose (canonical pattern,
    input digests, method, backend) key was already computed by *any*
    request in the batch reuses that result outright.  Keys are content
    digests, so reuse is sound across requests regardless of plan or
    operand identity; values are immutable COO results shared by
    reference.  A thread-safe, bounded :class:`KeyedStore`.
    """

    def __init__(self, maxsize: int = 64):
        super().__init__(maxsize)


class NetworkExecutor:
    """Plan-cached network contraction over a shared runtime.

    Parameters
    ----------
    machine:
        Platform model used for path optimization and pairwise planning.
    runtime:
        A shared :class:`ContractionRuntime`; built fresh when omitted
        (``runtime_kw`` configures the private one).
    plan_cache_size:
        How many :class:`NetworkPlan` entries the network-level LRU keeps.
    passes:
        Whether plans get their step annotations (CSE, dead steps,
        table hoisting; see :func:`~repro.network.dataflow.annotate_plan`).
        The choice is part of every plan-cache key, so annotated and
        bare plans never collide.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        *,
        runtime: ContractionRuntime | None = None,
        plan_cache_size: int = 64,
        passes: bool = True,
        **runtime_kw,
    ):
        self.machine = machine
        self.runtime = (
            runtime
            if runtime is not None
            else ContractionRuntime(machine=machine, **runtime_kw)
        )
        self.passes = passes
        # Signature key -> NetworkPlan.  Drift-tolerant: the same
        # network structure cached at nearby nonzero counts (a streamed
        # operand gained a few entries) keeps its path, re-keyed under
        # the live signature; past the tolerance the modeled costs that
        # chose the path are stale, so it is re-priced from scratch.
        self.plan_store = KeyedStore(
            plan_cache_size,
            rekey=lambda key, plan: replace(plan, signature_key=key),
        )
        self.cse_hits = 0
        self.cse_misses = 0
        self.batch_cse_hits = 0
        self.dead_skips = 0

    plan_misses = property(lambda self: self.plan_store.misses)
    plan_drift_hits = property(lambda self: self.plan_store.drift_hits)
    plan_drift_repriced = property(lambda self: self.plan_store.drift_repriced)

    @property
    def pipeline_key(self) -> str:
        """The annotation half of every plan-cache key (``""`` when
        passes are off, keeping historical keys stable)."""
        return ",".join(ANNOTATIONS) if self.passes else ""

    @staticmethod
    def _operand_dtypes(operands: Sequence) -> tuple[str, ...] | None:
        """Per-operand dtype names when live tensors were passed."""
        names = []
        for op in operands:
            values = getattr(op, "values", None)
            if values is None or not hasattr(values, "dtype"):
                return None
            names.append(values.dtype.name)
        return tuple(names)

    # -- planning -------------------------------------------------------

    def plan(
        self,
        subscripts: str,
        operands: Sequence,
        *,
        optimizer: str = "auto",
        nnz: Sequence[int] | None = None,
    ) -> tuple[NetworkPlan, str]:
        """The (cached) plan for a network; returns ``(plan, source)``.

        A cache miss runs the path optimizer and, with passes on,
        :func:`~repro.network.dataflow.annotate_plan` before the plan
        is cached under its annotation-qualified signature key.
        """
        network, concrete, key = self._plan_key(
            subscripts, operands, optimizer, nnz
        )
        hit = self.plan_store.get(key)
        if hit is not None:
            return hit, "cache"
        plan = build_plan(network, self.machine, concrete)
        if self.passes:
            plan = annotate_plan(
                plan, network, self._operand_dtypes(operands)
            )
        if plan.signature_key != key:
            plan = replace(plan, signature_key=key)
        self.seed_plan(plan)
        return plan, "optimizer"

    def cached_plan(
        self,
        subscripts: str,
        operands: Sequence,
        *,
        optimizer: str = "auto",
        nnz: Sequence[int] | None = None,
    ) -> NetworkPlan | None:
        """Cache-only probe: the plan if already built, else ``None``.

        Never runs path optimization and never touches the hit/miss
        tallies — the serve degradation ladder uses it to decide
        whether a warm full-quality plan is available before falling
        back to the cheap left-to-right path.
        """
        return self.plan_store.peek(
            self._plan_key(subscripts, operands, optimizer, nnz)[2]
        )

    def _plan_key(self, subscripts, operands, optimizer, nnz):
        """``(network, concrete optimizer, plan-cache key)`` of a request."""
        network = TensorNetwork.parse(subscripts, operands, nnz=nnz)
        concrete = resolve_optimizer(optimizer, network)
        key = NetworkSignature.for_network(
            network, self.machine, concrete, pipeline=self.pipeline_key
        ).key
        return network, concrete, key

    def seed_plan(self, plan: NetworkPlan) -> None:
        """Insert a pre-built plan into the network-level cache."""
        self.plan_store.put(plan.signature_key, plan)

    def invalidate_plans(self, predicate=None) -> int:
        """Drop cached network plans; returns how many were removed.

        ``predicate`` takes a signature key and returns whether to drop
        that entry; ``None`` clears the whole cache.  The streaming
        layer calls this when a tensor's nonzero structure moves far
        enough that even drift-tolerant reuse would mislead.
        """
        if predicate is None:
            return self.plan_store.clear()
        return self.plan_store.invalidate_where(predicate)

    # -- execution ------------------------------------------------------

    def contract(
        self,
        subscripts: str,
        *operands: COOTensor,
        optimizer: str = "auto",
        method: str = "fastcc",
        return_report: bool = False,
        backend=None,
        cse_cache: StepResultCache | None = None,
    ):
        """Plan (or replay) and execute one network contraction."""
        plan, source = self.plan(subscripts, operands, optimizer=optimizer)
        out, report = self.execute(
            plan, operands, method=method, backend=backend,
            cse_cache=cse_cache,
        )
        report.plan_source = source
        if return_report:
            return out, report
        return out

    def execute(
        self,
        plan: NetworkPlan,
        operands: Sequence[COOTensor],
        *,
        method: str = "fastcc",
        backend=None,
        cse_cache: StepResultCache | None = None,
        _reduced: Sequence[COOTensor] | None = None,
    ) -> tuple[COOTensor, NetworkReport]:
        """Run a frozen plan over concrete tensors.

        The plan's declared shapes are enforced positionally; steps run
        through the shared runtime (FaSTCC) or the one-shot ``contract``
        dispatcher for baseline methods.  Inputs to each step are
        dropped from the live list before the next step runs.
        ``backend`` overrides the runtime's kernel backend for every
        pairwise step (see :mod:`repro.backends`).

        Pass annotations are honored behind runtime guards (see the
        module docstring); ``cse_cache`` extends digest-guarded reuse
        across executions sharing the cache.  ``_reduced`` is the
        prepared-execution fast path: the already-marginalized operand
        list from :class:`PreparedNetwork` (identity matters — pinned
        cache entries key on these exact tensors).
        """
        network = TensorNetwork.parse(plan.subscripts, operands)
        report = NetworkReport(plan=plan, plan_source="given")
        t_start = time.perf_counter()

        # Upfront marginalization of dead single indices, per the plan.
        live: list[COOTensor] = []
        live_inter: list[bool] = []
        if _reduced is not None:
            live = list(_reduced)
            live_inter = [False] * len(live)
        else:
            for tensor, sub, reduced in zip(
                operands, network.inputs, plan.input_subs
            ):
                if sub != reduced:
                    dead = [m for m, ch in enumerate(sub) if ch not in reduced]
                    tensor = sum_out_modes(tensor, dead)
                live.append(tensor)
                live_inter.append(sub != reduced)

        peak_nnz = sum(
            t.nnz for t, inter in zip(live, live_inter) if inter
        )
        peak_bytes = sum(
            _tensor_bytes(t) for t, inter in zip(live, live_inter) if inter
        )

        # The dead-step premise: every operand the pass saw as empty
        # must still be empty, or every shortcut is off.
        zero_ok = bool(plan.zero_operands) and all(
            0 <= p < len(operands) and operands[p].nnz == 0
            for p in plan.zero_operands
        )
        # Steps whose results later steps want to reuse, with how many
        # reuses remain (retention beyond the eager free below).
        pending_reuses: dict[int, int] = {}
        for s in plan.steps:
            if s.cse_of >= 0:
                pending_reuses[s.cse_of] = pending_reuses.get(s.cse_of, 0) + 1
        retained: dict[int, tuple[tuple[bytes, bytes], COOTensor]] = {}
        memo = _DigestMemo()
        want_digests = bool(pending_reuses) or cse_cache is not None

        for k, step in enumerate(plan.steps):
            if not (0 <= step.i < step.j < len(live)):
                raise PlanError(
                    f"plan step {k} positions ({step.i}, {step.j}) do not "
                    f"fit the live operand list (length {len(live)})"
                )
            left, right = live[step.i], live[step.j]
            t0 = time.perf_counter()
            step_backend = "numpy"
            result = None
            plan_source = ""
            digests = None
            if want_digests:
                digests = (memo.digest(left), memo.digest(right))
            batch_key = None
            if cse_cache is not None:
                batch_key = (
                    canonical_pattern(step), digests, method, str(backend),
                )

            if step.dead and zero_ok:
                dtype = np.result_type(left.values, right.values)
                shape = tuple(network.extents[ch] for ch in step.sub_out)
                result = COOTensor(
                    np.zeros((len(shape), 0), dtype=np.int64),
                    np.zeros(0, dtype=dtype),
                    shape,
                    check=False,
                )
                plan_source = "dead"
                self.dead_skips += 1
            if result is None and step.cse_of >= 0:
                hit = retained.get(step.cse_of)
                if (
                    hit is not None
                    and digests == hit[0]
                    and canonical_pattern(step)
                    == canonical_pattern(plan.steps[step.cse_of])
                ):
                    result = hit[1]
                    plan_source = "cse"
                    self.cse_hits += 1
                else:
                    self.cse_misses += 1
            if result is None and batch_key is not None:
                shared = cse_cache.get(batch_key)
                if shared is not None:
                    result = shared
                    plan_source = "cse-batch"
                    self.batch_cse_hits += 1

            if result is not None:
                pass
            elif step.kind == "outer":
                result = outer_product(left, right)
                plan_source = "outer"
            elif method == "fastcc":
                result, run_record = self.runtime.contract(
                    left, right, step.pairs,
                    name=f"net:{step.subscripts}", return_record=True,
                    backend=backend,
                )
                plan_source = run_record.plan_source
                step_backend = run_record.backend
            else:
                result = contract(
                    left, right, step.pairs,
                    method=method, machine=self.machine,
                )
                plan_source = "planner"
            dt = time.perf_counter() - t0

            if k in pending_reuses and digests is not None:
                retained[k] = (digests, result)
            if batch_key is not None and plan_source != "cse-batch":
                cse_cache.put(batch_key, result)

            # Free the step's inputs eagerly, then account the result
            # (plus anything retained for a pending cse reuse).
            del live[step.j], live_inter[step.j]
            del live[step.i], live_inter[step.i]
            live.append(result)
            live_inter.append(True)
            if step.cse_of in pending_reuses:
                pending_reuses[step.cse_of] -= 1
                if pending_reuses[step.cse_of] <= 0:
                    del pending_reuses[step.cse_of]
                    retained.pop(step.cse_of, None)
            live_ids = {id(t) for t in live}
            extra = [
                t for _, t in retained.values() if id(t) not in live_ids
            ]
            alive_nnz = sum(
                t.nnz for t, inter in zip(live, live_inter) if inter
            ) + sum(t.nnz for t in extra)
            alive_bytes = sum(
                _tensor_bytes(t) for t, inter in zip(live, live_inter)
                if inter
            ) + sum(_tensor_bytes(t) for t in extra)
            peak_nnz = max(peak_nnz, alive_nnz)
            peak_bytes = max(peak_bytes, alive_bytes)
            report.steps.append(StepRecord(
                index=k,
                subscripts=step.subscripts,
                kind=step.kind,
                seconds=dt,
                output_nnz=result.nnz,
                plan_source=plan_source,
                backend=step_backend,
            ))

        if len(live) != 1:
            raise PlanError(
                f"plan left {len(live)} live operands; expected exactly 1"
            )
        final = live[0]
        final_sub = plan.final_sub
        if set(final_sub) != set(plan.output):  # pragma: no cover - guard
            raise PlanError(
                f"plan result carries indices {final_sub!r} but the "
                f"output wants {plan.output!r}"
            )
        if final_sub != plan.output:
            perm = [final_sub.index(ch) for ch in plan.output]
            final = final.permute_modes(perm)

        report.seconds = time.perf_counter() - t_start
        report.peak_intermediate_nnz = int(peak_nnz)
        report.peak_intermediate_bytes = int(peak_bytes)
        report.output_nnz = final.nnz
        return final, report

    # -- prepared (repeated) execution ----------------------------------

    def prepare(
        self,
        subscripts: str,
        *operands: COOTensor,
        optimizer: str = "auto",
        backend=None,
    ) -> "PreparedNetwork":
        """Hoist everything loop-invariant out of a repeated execution.

        Plans (or replays) the network, performs the upfront
        marginalization once, and acts on the plan's hoist annotations:
        steps contracting two network inputs get their Algorithm 7 plan,
        linearizations, *and* tiled tables built now; single-input sides
        get pre-linearized.  Every touched operand is pinned in the
        runtime's operand cache so executing the prepared network many
        times never rebuilds them.

        Use as a context manager (or call :meth:`PreparedNetwork.close`)
        to release the pins.
        """
        plan, _ = self.plan(subscripts, operands, optimizer=optimizer)
        network = TensorNetwork.parse(subscripts, operands)

        reduced: list[COOTensor] = []
        for tensor, sub, red in zip(operands, network.inputs, plan.input_subs):
            if sub != red:
                dead = [m for m, ch in enumerate(sub) if ch not in red]
                tensor = sum_out_modes(tensor, dead)
            reduced.append(tensor)

        graph = PlanGraph.from_plan(plan, network)
        zero_ok = bool(plan.zero_operands) and all(
            0 <= p < len(operands) and operands[p].nnz == 0
            for p in plan.zero_operands
        )
        pinned: list[COOTensor] = []
        tables_built = 0
        for op in graph.ops:
            step = op.step
            if step.kind != "contract" or (step.dead and zero_ok):
                continue
            vl, vr = graph.values[op.left], graph.values[op.right]
            hoist_l = step.hoist_l and vl.is_input
            hoist_r = step.hoist_r and vr.is_input
            if hoist_l and hoist_r:
                info = self.runtime.prepare_pairwise(
                    reduced[vl.origin[1]], reduced[vr.origin[1]],
                    step.pairs, backend=backend,
                )
                tables_built += info["tables_built"]
                pinned.extend(
                    (reduced[vl.origin[1]], reduced[vr.origin[1]])
                )
            elif hoist_l:
                self.runtime.prepare_operand(
                    reduced[vl.origin[1]], "L", vr.shape, step.pairs
                )
                pinned.append(reduced[vl.origin[1]])
            elif hoist_r:
                self.runtime.prepare_operand(
                    reduced[vr.origin[1]], "R", vl.shape, step.pairs
                )
                pinned.append(reduced[vr.origin[1]])
        return PreparedNetwork(
            executor=self,
            plan=plan,
            operands=tuple(operands),
            reduced=tuple(reduced),
            pinned=tuple(pinned),
            tables_built=tables_built,
        )

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict:
        """Network- and pairwise-level cache metrics, JSON-friendly."""
        plans = self.plan_store.stats()
        cse_total = self.cse_hits + self.cse_misses
        out = {
            "network_plans_cached": plans["entries"],
            "network_plan_hits": plans["hits"],
            "network_plan_misses": plans["misses"],
            "network_plan_hit_rate": plans["hit_rate"],
            "network_plan_drift_hits": plans["drift_hits"],
            "network_plan_drift_repriced": plans["drift_repriced"],
            "network_plans_invalidated": plans["invalidated"],
            "cse_hits": self.cse_hits,
            "cse_misses": self.cse_misses,
            "cse_hit_rate": self.cse_hits / cse_total if cse_total else 0.0,
            "batch_cse_hits": self.batch_cse_hits,
            "dead_skips": self.dead_skips,
        }
        out.update(
            {f"pairwise_{k}": v for k, v in self.runtime.metrics().items()}
        )
        return out


@dataclass
class PreparedNetwork:
    """One network pinned for repeated execution (see
    :meth:`NetworkExecutor.prepare`).

    Holds the plan, the original operands, the once-marginalized
    operand list the executions actually contract, and the pins to
    release.  A context manager: pins are released on exit.
    """

    executor: NetworkExecutor
    plan: NetworkPlan
    operands: tuple[COOTensor, ...]
    reduced: tuple[COOTensor, ...]
    pinned: tuple[COOTensor, ...]
    tables_built: int = 0
    _closed: bool = False

    def execute(
        self,
        *,
        method: str = "fastcc",
        backend=None,
        cse_cache: StepResultCache | None = None,
        return_report: bool = False,
    ):
        """One execution of the prepared network."""
        if self._closed:
            raise PlanError("prepared network is closed (pins released)")
        out, report = self.executor.execute(
            self.plan, self.operands,
            method=method, backend=backend, cse_cache=cse_cache,
            _reduced=self.reduced,
        )
        if return_report:
            return out, report
        return out

    def close(self) -> None:
        """Release every operand pin (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for tensor in self.pinned:
            self.executor.runtime.unpin_operand(tensor)

    def __enter__(self) -> "PreparedNetwork":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- module-level convenience -------------------------------------------

_DEFAULT_EXECUTORS: dict[tuple, NetworkExecutor] = {}


def default_executor(machine: MachineSpec = DESKTOP) -> NetworkExecutor:
    """The shared per-machine executor behind :func:`repro.einsum` —
    what makes repeated einsum calls warm across call sites."""
    key = (
        machine.name, machine.n_cores, machine.l3_bytes,
        machine.l2_bytes_per_core, machine.word_bytes,
    )
    executor = _DEFAULT_EXECUTORS.get(key)
    if executor is None:
        executor = NetworkExecutor(machine=machine)
        _DEFAULT_EXECUTORS[key] = executor
    return executor


def contract_network(
    subscripts: str,
    *operands: COOTensor,
    machine: MachineSpec = DESKTOP,
    optimizer: str = "auto",
    method: str = "fastcc",
    executor: NetworkExecutor | None = None,
    return_report: bool = False,
    backend=None,
):
    """One-call network contraction through the shared default executor."""
    if executor is None:
        executor = default_executor(machine)
    return executor.contract(
        subscripts, *operands,
        optimizer=optimizer, method=method, return_report=return_report,
        backend=backend,
    )
