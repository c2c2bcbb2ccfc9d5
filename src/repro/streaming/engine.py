"""Incremental re-contraction of streamed tensors.

The FaSTCC kernel's 2-D tiling (Section 4) makes contraction outputs
*block-decomposable*: output tile ``(i, j)`` is a pure function of the
left operand's tile-``i`` table, the right operand's tile-``j`` table,
and the pinned plan.  A delta whose coordinates land in ``k`` left tiles
therefore only perturbs the ``k x NR`` affected tile-pairs — the other
``(NL - k) x NR`` output tiles are byte-for-byte unchanged.

:class:`IncrementalEngine` exploits this: it registers a contraction
once (pinning the plan and backend, caching canonical linearized
operands, both tiled tables, and the raw linearized output rows), then
services each :class:`~repro.streaming.delta.DeltaBatch` by

1. applying the delta to the canonical operand,
2. *restricting* the new linearized operand to the touched tiles,
3. re-running the kernel on the restriction against the partner's
   cached full tables (only the affected tile-pairs produce tasks), and
4. patching the cached output rows: unaffected tiles keep their stored
   rows, affected tiles take the freshly computed ones.

Because each tile-pair task is deterministic given its two tables and
the plan, the patched output is **bit-identical** to a from-scratch
contraction of the mutated operands under the same plan (the
differential fuzzer in ``tests/streaming`` asserts this per backend).

Past a staleness threshold the incremental path stops paying: the
work it saves is priced through the paper's Section 5.1 density model
(multiply-accumulate volume per tile plus the modeled patched-row
count), and once the modeled incremental fraction exceeds the
threshold the engine falls back to a full recompute.

A delta computes everything it changes into locals first and commits
them to the :class:`StreamState` in one final step, so a delta that
raises (say, :class:`~repro.errors.WorkspaceLimitError` from the
kernel) leaves the stream exactly as it was before the call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.counters import Counters
from repro.backends.base import KernelBackend
from repro.backends.registry import resolve_backend
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec, LinearizedOperand, Plan
from repro.core.tiled_co import TiledTables, build_tiled_tables, tiled_co_contract
from repro.errors import ConfigError, StreamError
from repro.machine.specs import DESKTOP, MachineSpec
from repro.runtime.signature import signature_for
from repro.streaming.delta import DeltaBatch
from repro.tensors.coo import COOTensor

__all__ = [
    "IncrementalEngine",
    "StreamState",
    "StreamStats",
    "check_stream_limits",
]

#: Default modeled-work fraction above which a delta triggers a full
#: recompute instead of tile patching (see Section 5.1 pricing below).
DEFAULT_STALENESS_THRESHOLD = 0.35

#: A stream's canonical output rows ``(l_idx, r_idx, values, output)``,
#: sorted by ``l * R + r`` with ``output``'s columns index-aligned.
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, COOTensor]


def check_stream_limits(staleness_threshold: float) -> None:
    """Raise :class:`ConfigError` for a threshold no engine can run with.

    Shared by :class:`IncrementalEngine` and
    :class:`repro.serve.ServiceConfig` (its ``stream_staleness_threshold``),
    so a service refuses at construction what its engine would refuse
    later.
    """
    if not 0.0 < staleness_threshold <= 1.0:
        raise ConfigError(
            f"staleness_threshold must be in (0, 1], got {staleness_threshold}"
        )


@dataclass
class StreamStats:
    """What one :meth:`IncrementalEngine.apply_delta` call did."""

    name: str
    side: str
    mode: str  # "incremental" | "full" | "noop"
    seq: int  # per-side sequence number of the applied batch
    tiles_touched: int
    tiles_total: int
    modeled_fraction: float
    seconds: float
    output_nnz: int


class StreamState:
    """Everything cached for one registered streaming contraction."""

    __slots__ = (
        "name", "spec", "plan", "backend", "left", "right",
        "left_op", "right_op", "hl", "hr",
        "l_idx", "r_idx", "values", "output", "seq", "lock",
    )

    def __init__(self, name: str, spec: ContractionSpec, plan: Plan,
                 backend: KernelBackend):
        self.name = name
        self.spec = spec
        self.plan = plan
        self.backend = backend
        self.left: COOTensor | None = None
        self.right: COOTensor | None = None
        self.left_op: LinearizedOperand | None = None
        self.right_op: LinearizedOperand | None = None
        self.hl: TiledTables | None = None
        self.hr: TiledTables | None = None
        # Linearized output rows, sorted by combined index l * R + r
        # (row-major output order) — the patchable representation.
        self.l_idx = np.empty(0, dtype=np.int64)
        self.r_idx = np.empty(0, dtype=np.int64)
        self.values = np.empty(0)
        self.output: COOTensor | None = None
        # Deltas committed per side; the next one gets this number.
        self.seq = {"left": 0, "right": 0}
        # Held by apply_delta from its state read to its commit, so two
        # deltas on one stream never build on the same old state.
        self.lock = threading.Lock()


class IncrementalEngine:
    """Delta-driven incremental contraction over registered streams.

    Parameters
    ----------
    machine:
        Platform model for planning (Algorithm 7) when no plan/runtime
        supplies one.
    staleness_threshold:
        Modeled incremental-work fraction (0, 1] above which a delta
        falls back to full recompute.
    n_workers:
        Worker threads for table construction and the kernel.
    backend:
        Default kernel backend (name, instance, or ``None`` for the
        environment default); resolved and *pinned* per stream at
        registration so every re-contraction runs identically.
    runtime:
        Optional :class:`~repro.runtime.executor.ContractionRuntime` to
        integrate with: plans are shared through its
        :class:`~repro.runtime.plan_cache.PlanCache`, and every committed
        delta invalidates the runtime's cached linearizations/tables
        for the replaced tensor object.
    """

    def __init__(
        self,
        machine: MachineSpec = DESKTOP,
        *,
        staleness_threshold: float = DEFAULT_STALENESS_THRESHOLD,
        n_workers: int = 1,
        backend: "str | KernelBackend | None" = None,
        runtime=None,
    ):
        check_stream_limits(staleness_threshold)
        self.machine = machine
        self.staleness_threshold = float(staleness_threshold)
        self.n_workers = int(n_workers)
        self.backend = backend
        self.runtime = runtime
        self.counters = Counters()
        self._states: dict[str, StreamState] = {}
        self._lock = threading.RLock()
        # Running totals behind metrics(), keyed by StreamStats.mode;
        # per-call stats are apply_delta's return value.
        self._deltas = {"incremental": 0, "full": 0, "noop": 0}
        self._seconds = {"incremental": 0.0, "full": 0.0, "noop": 0.0}
        self._fraction_sum = 0.0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        left: COOTensor,
        right: COOTensor,
        pairs: Sequence[tuple[int, int]],
        *,
        accumulator: str = "auto",
        tile_size: int | None = None,
        plan: Plan | None = None,
    ) -> COOTensor:
        """Register a streaming contraction and compute its first output.

        The chosen plan and resolved backend are pinned for the stream's
        lifetime — incremental patching is only sound against a fixed
        tiling.  Returns the canonical initial output.
        """
        spec = ContractionSpec(left.shape, right.shape, pairs)
        left = left.sum_duplicates()
        right = right.sum_duplicates()
        sig = signature_for(
            left, right, pairs, self.machine,
            accumulator=accumulator, tile_size=tile_size,
        )
        if plan is None and self.runtime is not None:
            plan, _ = self.runtime.plan_cache.resolve(
                sig, spec, left.nnz, right.nnz, self.machine,
                accumulator=accumulator, tile_size=tile_size,
            )
        elif plan is None:
            plan = choose_plan(
                spec, left.nnz, right.nnz, self.machine,
                accumulator=accumulator, tile_size=tile_size,
            )
        backend = resolve_backend(
            self.backend, signature=sig,
        ) if not isinstance(self.backend, KernelBackend) else self.backend

        state = StreamState(str(name), spec, plan, backend)
        state.left = left
        state.right = right
        state.left_op = spec.linearize_left(left).sum_duplicates()
        state.right_op = spec.linearize_right(right).sum_duplicates()
        state.hl = build_tiled_tables(
            state.left_op, plan.tile_l, n_workers=self.n_workers,
            counters=self.counters,
        )
        state.hr = build_tiled_tables(
            state.right_op, plan.tile_r, n_workers=self.n_workers,
            counters=self.counters,
        )
        (state.l_idx, state.r_idx, state.values,
         state.output) = self._canonical_rows(
            state, *self._contract_rows(
                state, state.left_op, state.right_op, state.hl, state.hr
            )
        )

        with self._lock:
            if str(name) in self._states:
                raise StreamError(f"stream {name!r} is already registered")
            self._states[str(name)] = state
        return state.output

    def streams(self) -> list[str]:
        with self._lock:
            return sorted(self._states)

    def _state(self, name: str) -> StreamState:
        with self._lock:
            state = self._states.get(str(name))
        if state is None:
            raise StreamError(
                f"unknown stream {name!r}; register it first "
                f"(known: {self.streams()})"
            )
        return state

    # ------------------------------------------------------------------
    # Kernel plumbing
    # ------------------------------------------------------------------

    def _contract_rows(
        self,
        state: StreamState,
        left_op: LinearizedOperand,
        right_op: LinearizedOperand,
        hl: TiledTables,
        hr: TiledTables,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the pinned-plan kernel; returns raw linearized rows."""
        l_idx, r_idx, values, _ = tiled_co_contract(
            left_op, right_op, state.plan,
            n_workers=self.n_workers, counters=self.counters,
            tables=(hl, hr), backend=state.backend,
        )
        return l_idx, r_idx, values

    def _canonical_rows(
        self, state: StreamState,
        l_idx: np.ndarray, r_idx: np.ndarray, values: np.ndarray,
    ) -> Rows:
        """Canonicalize rows into row-major output order.

        Sorting by the combined index ``l * R + r`` erases the
        thread/merge order of the producing tasks, which is what makes
        patched and from-scratch outputs comparable bit-for-bit.  The
        returned rows and output columns stay index-aligned (patching
        relies on it).
        """
        keys, output = state.spec.canonical_output(l_idx, r_idx, values)
        R = np.int64(state.spec.R)
        l_out = keys // R
        return l_out, keys - l_out * R, output.values, output

    def _merge_rows(
        self, state: StreamState, keep: np.ndarray,
        l_new: np.ndarray, r_new: np.ndarray, v_new: np.ndarray,
    ) -> Rows:
        """The stored rows inside ``keep`` plus freshly contracted ones.

        The kept rows are already in canonical order, so the canonical
        sort of kept-then-new rows is a merge of two sorted runs; a new
        row colliding with a kept one (no disjoint tile patch makes one)
        is summed rather than lost.
        """
        return self._canonical_rows(
            state,
            np.concatenate([state.l_idx[keep], l_new]),
            np.concatenate([state.r_idx[keep], r_new]),
            np.concatenate([state.values[keep], v_new]),
        )

    def _splice_segments(
        self, state: StreamState, touched: np.ndarray, tile: int,
        l_new: np.ndarray, r_new: np.ndarray, v_new: np.ndarray,
    ) -> Rows:
        """Left-side patch via contiguous-slice replacement.

        The store is sorted by ``l * R + r`` with ``l`` as the primary
        key, so every touched *left* tile's rows occupy one contiguous
        slice, and the fresh tile blocks land exactly where the old
        ones were.  The whole patch is then a handful of
        ``concatenate`` copies — no keep-mask, no gather/scatter, and
        only the new rows are delinearized.  (Right-side patches can't
        use this: ``r`` is the secondary key, so a right tile's rows
        interleave through the store.)
        """
        new_combined = state.spec.output_keys(l_new, r_new)
        order = np.argsort(new_combined, kind="stable")
        new_combined = new_combined[order]
        l_new, r_new, v_new = l_new[order], r_new[order], v_new[order]
        tiles = np.sort(touched)
        in_touched = np.isin(l_new // np.int64(tile), tiles)
        if (
            new_combined.size > 1
            and not bool(np.all(np.diff(new_combined) > 0))
        ) or not bool(np.all(in_touched)):
            # Colliding keys or rows escaping the touched tiles: no
            # tiled kernel produces either, but fall back to the
            # generic full re-sort rather than corrupt the store.
            keep = ~np.isin(state.l_idx // np.int64(tile), tiles)
            return self._merge_rows(state, keep, l_new, r_new, v_new)
        assert state.output is not None
        new_coords = state.spec.lin_out.decode(new_combined)
        pieces_l: list[np.ndarray] = []
        pieces_r: list[np.ndarray] = []
        pieces_v: list[np.ndarray] = []
        pieces_c: list[np.ndarray] = []
        cursor = 0
        for t in tiles.tolist():
            lo_l, hi_l = t * tile, (t + 1) * tile
            lo, hi = np.searchsorted(state.l_idx, [lo_l, hi_l], side="left")
            new_lo, new_hi = np.searchsorted(
                l_new, [lo_l, hi_l], side="left"
            )
            pieces_l += [state.l_idx[cursor:lo], l_new[new_lo:new_hi]]
            pieces_r += [state.r_idx[cursor:lo], r_new[new_lo:new_hi]]
            pieces_v += [state.values[cursor:lo], v_new[new_lo:new_hi]]
            pieces_c += [
                state.output.coords[:, cursor:lo],
                new_coords[:, new_lo:new_hi],
            ]
            cursor = int(hi)
        pieces_l.append(state.l_idx[cursor:])
        pieces_r.append(state.r_idx[cursor:])
        pieces_v.append(state.values[cursor:])
        pieces_c.append(state.output.coords[:, cursor:])
        values = np.concatenate(pieces_v)
        output = COOTensor(
            np.concatenate(pieces_c, axis=1), values,
            state.output.shape, check=False,
        )
        return np.concatenate(pieces_l), np.concatenate(pieces_r), values, output

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        name: str,
        delta: DeltaBatch,
        *,
        side: str = "left",
        force: str | None = None,
    ) -> StreamStats:
        """Apply one delta batch to a registered stream's operand.

        ``side`` selects which operand mutates.  ``force`` overrides the
        staleness decision (``"incremental"`` or ``"full"``; benchmarks
        use it to measure both paths on the same delta).  Returns the
        per-call :class:`StreamStats`.

        The new operand, tables and output rows are computed into
        locals and committed to the stream in one final step, so a
        delta that raises leaves the stream's previous state intact.
        Deltas on one stream run one at a time under the stream's lock;
        deltas on different streams still run concurrently.
        """
        if side not in ("left", "right"):
            raise ConfigError(f"side must be left|right, got {side!r}")
        if force not in (None, "incremental", "full"):
            raise ConfigError(
                f"force must be incremental|full when given, got {force!r}"
            )
        state = self._state(name)
        with state.lock:
            t0 = time.perf_counter()
            delta = delta.canonicalize()

            spec = state.spec
            plan = state.plan
            if side == "left":
                old_tensor, partner_op = state.left, state.right_op
                tile, num_tiles = plan.tile_l, state.hl.num_tiles
                own_ext, partner_ext = spec.L, spec.R
            else:
                old_tensor, partner_op = state.right, state.left_op
                tile, num_tiles = plan.tile_r, state.hr.num_tiles
                own_ext, partner_ext = spec.R, spec.L
            assert old_tensor is not None and partner_op is not None

            mode, n_touched, fraction = "noop", 0, 0.0
            if delta.n_ops:
                # Touched tiles: the delta's coordinates mapped through the
                # spec's external linearizer onto this side's tile grid.
                if side == "left":
                    ext = spec.lin_l.encode(delta.coords[list(spec.left_external), :])
                else:
                    ext = spec.lin_r.encode(delta.coords[list(spec.right_external), :])
                touched = np.unique(ext // np.int64(tile))
                n_touched = int(touched.shape[0])

                new_tensor = delta.apply(old_tensor)
                new_op = (
                    spec.linearize_left(new_tensor) if side == "left"
                    else spec.linearize_right(new_tensor)
                ).sum_duplicates()

                # -- Section 5.1 pricing of the incremental path ------------
                # Work is modeled as multiply-accumulate volume: the kernel's
                # per-tile-pair cost bound is nnz(HL_i) * nnz(HR_j), so the
                # affected fraction is (nnz in touched tiles) / (total nnz)
                # of the mutated side (the partner's volume cancels), plus
                # the modeled cost of re-draining the patched output rows —
                # the plan's estimated output density (Eq. 5.1) times the
                # patched index space — against the full output's modeled
                # row count.
                tile_of = new_op.ext // np.int64(tile)
                per_tile = np.bincount(tile_of, minlength=num_tiles)
                affected_nnz = int(per_tile[touched].sum())
                mults_full = float(new_op.nnz) * float(partner_op.nnz)
                mults_inc = float(affected_nnz) * float(partner_op.nnz)
                rows_full = plan.est_output_density * float(own_ext) * float(partner_ext)
                rows_inc = plan.est_output_density * float(
                    min(n_touched * tile, own_ext)
                ) * float(partner_ext)
                denom = mults_full + rows_full
                fraction = (mults_inc + rows_inc) / denom if denom > 0 else 1.0

                mode = "incremental" if fraction <= self.staleness_threshold else "full"
                if force is not None:
                    mode = force
                if mode == "incremental":
                    tables, rows = self._patch(state, side, new_op, touched, tile)
                else:
                    tables, rows = self._rebuild(state, side, new_op, tile)

            # -- Commit: nothing above wrote to the stream's state ----------
            if mode != "noop" and self.runtime is not None:
                self.runtime.invalidate_operand(old_tensor)
            with self._lock:
                if mode != "noop":
                    if side == "left":
                        state.left, state.left_op, state.hl = new_tensor, new_op, tables
                    else:
                        state.right, state.right_op, state.hr = new_tensor, new_op, tables
                    state.l_idx, state.r_idx, state.values, state.output = rows
                if mode == "incremental":
                    self.counters.stream_incremental += 1
                elif mode == "full":
                    self.counters.stream_full += 1
                stats = StreamStats(
                    name=state.name, side=side, mode=mode, seq=state.seq[side],
                    tiles_touched=n_touched, tiles_total=num_tiles,
                    modeled_fraction=float(fraction),
                    seconds=time.perf_counter() - t0,
                    output_nnz=state.output.nnz if state.output is not None else 0,
                )
                state.seq[side] += 1
                self._deltas[mode] += 1
                self._seconds[mode] += stats.seconds
                self._fraction_sum += stats.modeled_fraction
            return stats

    def _patch(
        self,
        state: StreamState,
        side: str,
        new_op: LinearizedOperand,
        touched: np.ndarray,
        tile: int,
    ) -> tuple[TiledTables, Rows]:
        """Re-contract only the touched tiles; returns patched tables and rows."""
        mask = np.isin(new_op.ext // np.int64(tile), touched)
        restricted = LinearizedOperand(
            ext=new_op.ext[mask], con=new_op.con[mask],
            values=new_op.values[mask],
            ext_extent=new_op.ext_extent, con_extent=new_op.con_extent,
        )
        h_restricted = build_tiled_tables(
            restricted, tile, n_workers=self.n_workers, counters=self.counters
        )
        assert state.left_op is not None and state.right_op is not None
        assert state.hl is not None and state.hr is not None
        if side == "left":
            l_new, r_new, v_new = self._contract_rows(
                state, restricted, state.right_op, h_restricted, state.hr
            )
            rows = self._splice_segments(state, touched, tile, l_new, r_new, v_new)
            old = state.hl
        else:
            l_new, r_new, v_new = self._contract_rows(
                state, state.left_op, restricted, state.hl, h_restricted
            )
            keep = ~np.isin(state.r_idx // np.int64(tile), touched)
            rows = self._merge_rows(state, keep, l_new, r_new, v_new)
            old = state.hr
        tables = list(old.tables)
        for t in touched.tolist():
            tables[t] = h_restricted.tables[t]
        return TiledTables(tile, old.num_tiles, tables, new_op.nnz), rows

    def _rebuild(
        self,
        state: StreamState,
        side: str,
        new_op: LinearizedOperand,
        tile: int,
    ) -> tuple[TiledTables, Rows]:
        """Full recompute: fresh tables for the mutated side, full kernel."""
        h_new = build_tiled_tables(
            new_op, tile, n_workers=self.n_workers, counters=self.counters
        )
        assert state.left_op is not None and state.right_op is not None
        assert state.hl is not None and state.hr is not None
        if side == "left":
            raw = self._contract_rows(state, new_op, state.right_op, h_new, state.hr)
        else:
            raw = self._contract_rows(state, state.left_op, new_op, state.hl, h_new)
        return h_new, self._canonical_rows(state, *raw)

    # ------------------------------------------------------------------
    # Results and maintenance
    # ------------------------------------------------------------------

    def result(self, name: str) -> COOTensor:
        """The stream's current canonical output."""
        state = self._state(name)
        assert state.output is not None
        return state.output

    def invalidate(self, name: str) -> int:
        """Drop a stream's cached state; returns streams dropped (1 or 0)."""
        with self._lock:
            return int(self._states.pop(str(name), None) is not None)

    def metrics(self) -> dict:
        """JSON-friendly aggregate metrics."""
        with self._lock:
            applied = sum(self._deltas.values())
            return {
                "streams": sorted(self._states),
                "deltas_applied": applied,
                "incremental": self._deltas["incremental"],
                "full": self._deltas["full"],
                "incremental_seconds": self._seconds["incremental"],
                "full_seconds": self._seconds["full"],
                "mean_modeled_fraction": (
                    self._fraction_sum / applied if applied else 0.0
                ),
            }
