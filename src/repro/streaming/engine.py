"""Incremental re-contraction of streamed tensors.

The FaSTCC kernel's 2-D tiling (Section 4) makes contraction outputs
*block-decomposable*: output tile ``(i, j)`` is a pure function of the
left operand's tile-``i`` table, the right operand's tile-``j`` table,
and the pinned plan.  A delta whose coordinates land in ``k`` left tiles
therefore only perturbs the ``k x NR`` affected tile-pairs.

:class:`IncrementalEngine` registers a contraction once (pinning the
plan and backend) and keeps each operand's canonical linearized form
beside its tiled tables, and the canonical output, with the offsets at
which each tile's rows start.  A :class:`~repro.streaming.delta.DeltaBatch`
is linearized on its own and applied to the touched tiles' rows only,
the kernel re-runs on those rows against the partner's cached tables,
and the touched tiles' output rows are replaced: a left tile's rows are
one contiguous run of the output, so a left delta splices its fresh
runs in with one copy of the output's coordinates and values; a right
delta touches every left tile and re-sorts the kept and fresh rows.
Each tile-pair task is deterministic given its two tables and the plan,
so the output is **bit-identical** to a from-scratch contraction of the
mutated operands under the same plan (``tests/streaming`` fuzzes this
per backend).

Past a staleness threshold, priced through the paper's Section 5.1
density model, the engine falls back to a full recompute.  A delta
builds its new operand, tables and output into locals and commits them
in one final step, so a delta that raises (say,
:class:`~repro.errors.WorkspaceLimitError` from the kernel) leaves the
stream exactly as it was.
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
from repro.streaming.delta import DeltaBatch, apply_ops
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

_OTHER = {"left": "right", "right": "left"}


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


def _offsets(keys: np.ndarray, step: int, num_tiles: int) -> np.ndarray:
    """Where each tile's rows start in ``keys`` sorted by tile (tile ``t``
    holds keys in ``[t * step, (t + 1) * step)``), plus the total."""
    return np.searchsorted(keys, np.arange(num_tiles + 1) * np.int64(step))


def _spans(keys: np.ndarray, step: int, tiles: np.ndarray) -> np.ndarray:
    """``(2, k)`` start and stop of the listed tiles' rows in sorted ``keys``."""
    return np.searchsorted(keys, np.stack([tiles, tiles + 1]) * np.int64(step))


def _tile_rows(flat: tuple, cuts: np.ndarray, tiles: np.ndarray) -> tuple:
    """The listed tiles' rows of a tile-sorted store, joined in tile order."""
    bounds = cuts.tolist()
    return tuple(
        np.concatenate([a[..., bounds[t]:bounds[t + 1]] for t in tiles.tolist()],
                       axis=-1)
        for a in flat
    )


def _splice(
    flat: tuple, cuts: np.ndarray, tiles: np.ndarray,
    fresh: tuple, spans: np.ndarray,
) -> tuple[tuple, np.ndarray]:
    """Replace the listed tiles' rows of a tile-sorted store.

    ``flat`` is a tuple of arrays sharing their last axis, tile ``t``'s
    rows at ``cuts[t]:cuts[t + 1]``; ``fresh`` holds new rows for the
    listed tiles only, ``tiles[k]``'s at ``spans[0, k]:spans[1, k]``.
    Every other tile's rows are copied over as they are.  Returns the
    new arrays and their cuts.
    """
    sizes = spans[1] - spans[0]
    assert int(sizes.sum()) == fresh[0].shape[-1]  # no row escapes its tile
    bounds, pieces, at = cuts.tolist(), [[] for _ in flat], 0
    for t, a, b in zip(tiles.tolist(), *spans.tolist()):
        for out, old, new in zip(pieces, flat, fresh):
            out += [old[..., at:bounds[t]], new[..., a:b]]
        at = bounds[t + 1]
    for out, old in zip(pieces, flat):
        out.append(old[..., at:])
    new_sizes = np.diff(cuts)
    new_sizes[tiles] = sizes
    return (tuple(np.concatenate(p, axis=-1) for p in pieces),
            np.concatenate([[0], np.cumsum(new_sizes)]))


def _decode(spec: ContractionSpec, side: str, op: LinearizedOperand) -> COOTensor:
    """A side's canonical COO tensor, decoded from its linearized operand."""
    k = int(side == "right")
    shape = (spec.left_shape, spec.right_shape)[k]
    coords = np.empty((len(shape), op.nnz), dtype=np.int64)
    coords[list((spec.left_external, spec.right_external)[k])] = (
        (spec.lin_l, spec.lin_r)[k].decode(op.ext))
    coords[[p[k] for p in spec.pairs]] = spec.lin_c.decode(op.con)
    tensor = COOTensor(coords, op.values, shape, check=False)
    keys = tensor.linearized()
    # ``(ext, con)`` order is already row-major when the external modes lead.
    return tensor if (keys[1:] > keys[:-1]).all() else tensor.sum_duplicates()


class StreamState:
    """Everything cached for one registered streaming contraction.

    Per side: the canonical COO tensor (``left``, ``right``), the
    canonical linearized operand sorted by ``(ext, con)`` (``ops``) and
    its tiled tables (``hl``, ``hr``).  The canonical output is sorted
    by ``l * R + r``.  ``cuts`` holds where each tile's rows start:
    ``cuts[side]`` in the side's operand, ``cuts["out"]`` (left tiles)
    in the output.
    """

    __slots__ = (
        "name", "spec", "plan", "backend", "tensors", "ops", "tables",
        "cuts", "output", "seq", "lock",
    )

    def __init__(self, name: str, spec: ContractionSpec, plan: Plan,
                 backend: KernelBackend):
        self.name, self.spec, self.plan, self.backend = name, spec, plan, backend
        self.tensors: dict[str, COOTensor] = {}
        self.ops: dict[str, LinearizedOperand] = {}
        self.tables: dict[str, TiledTables] = {}
        self.cuts: dict[str, np.ndarray] = {}
        self.output = COOTensor.empty(spec.output_shape)
        # Deltas committed per side; the next one gets this number.
        self.seq = {"left": 0, "right": 0}
        # Held by apply_delta from its state read to its commit, so two
        # deltas on one stream never build on the same old state.
        self.lock = threading.Lock()

    hl = property(lambda self: self.tables["left"])
    hr = property(lambda self: self.tables["right"])
    left = property(lambda self: self.tensors["left"])
    right = property(lambda self: self.tensors["right"])


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
        for side, tensor, tile in (
            ("left", left, plan.tile_l), ("right", right, plan.tile_r),
        ):
            op = (spec.linearize_left(tensor) if side == "left"
                  else spec.linearize_right(tensor)).sum_duplicates()
            tables = build_tiled_tables(
                op, tile, n_workers=self.n_workers, counters=self.counters,
            )
            state.tensors[side], state.ops[side] = tensor, op
            state.tables[side] = tables
            state.cuts[side] = _offsets(op.ext, tile, tables.num_tiles)
        state.output, state.cuts["out"] = self._output_of(
            state, *self._contract_rows(state, "left", state.ops["left"], state.hl)
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

    def _contract_rows(
        self, state: StreamState, side: str,
        op: LinearizedOperand, tables: TiledTables,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raw rows of the pinned-plan kernel, with ``side`` given by ``op``
        and ``tables`` and the other side by the stream's own."""
        other = _OTHER[side]
        ops = {side: op, other: state.ops[other]}
        hs = {side: tables, other: state.tables[other]}
        l_idx, r_idx, values, _ = tiled_co_contract(
            ops["left"], ops["right"], state.plan,
            n_workers=self.n_workers, counters=self.counters,
            tables=(hs["left"], hs["right"]), backend=state.backend,
        )
        return l_idx, r_idx, values

    def _output_of(
        self, state: StreamState,
        l_idx: np.ndarray, r_idx: np.ndarray, values: np.ndarray,
    ) -> tuple[COOTensor, np.ndarray]:
        """Kernel rows as the canonical output and its left-tile cuts."""
        keys, output = state.spec.canonical_output(l_idx, r_idx, values)
        step = np.int64(state.plan.tile_l) * np.int64(state.spec.R)
        return output, _offsets(keys, step, state.hl.num_tiles)

    def _patch_operand(
        self, state: StreamState, side: str, delta: DeltaBatch, tile: int,
    ) -> tuple[LinearizedOperand, np.ndarray, np.ndarray, LinearizedOperand]:
        """The side's operand with ``delta`` applied, its cuts, the tiles
        the delta touched, and those tiles' new rows.

        Only the delta's own ops are linearized, and only the touched
        tiles' rows are rebuilt (by :func:`apply_ops` on ``ext * C + con``
        keys) and spliced in.
        """
        spec, op, cuts = state.spec, state.ops[side], state.cuts[side]
        raw = COOTensor(delta.coords, delta.values, delta.shape, check=False)
        ops = spec.linearize_left(raw) if side == "left" else spec.linearize_right(raw)
        C = np.int64(spec.C)
        touched = np.unique(ops.ext // np.int64(tile))
        ext, con, values = _tile_rows((op.ext, op.con, op.values), cuts, touched)
        keys = ops.ext * C + ops.con
        order = np.argsort(keys)
        keys, values = apply_ops(
            ext * C + con, values, keys[order], delta.kinds[order], ops.values[order],
        )
        ext = keys // C
        fresh = LinearizedOperand(
            ext, keys - ext * C, values, op.ext_extent, op.con_extent
        )
        (ext, con, values), cuts = _splice(
            (op.ext, op.con, op.values), cuts, touched,
            (fresh.ext, fresh.con, fresh.values), _spans(fresh.ext, tile, touched),
        )
        new = LinearizedOperand(ext, con, values, op.ext_extent, op.con_extent)
        return new, cuts, touched, fresh

    def _replace_tile_rows(
        self, state: StreamState, side: str, touched: np.ndarray,
        l_new: np.ndarray, r_new: np.ndarray, v_new: np.ndarray,
    ) -> tuple[COOTensor, np.ndarray]:
        """The output with the touched tiles' rows replaced by fresh ones,
        and its cuts.

        ``l`` is the output's primary key, so a left tile's rows are one
        contiguous run and a left patch splices the fresh runs in.  A
        right tile's rows interleave through every left tile, so a right
        patch sends the kept and fresh rows through one
        ``canonical_output`` sort (a counting sort on a dense output).
        """
        spec, plan, out = state.spec, state.plan, state.output
        R = np.int64(spec.R)
        if side == "right":
            stored = spec.lin_out.encode(out.coords)
            l_old = stored // R
            r_old = stored - l_old * R
            stale = np.zeros(state.hr.num_tiles, dtype=bool)
            stale[touched] = True
            keep = ~stale[r_old // np.int64(plan.tile_r)]
            return self._output_of(
                state,
                np.concatenate([l_old[keep], l_new]),
                np.concatenate([r_old[keep], r_new]),
                np.concatenate([out.values[keep], v_new]),
            )
        keys, fresh = spec.canonical_output(l_new, r_new, v_new)
        (coords, values), cuts = _splice(
            (out.coords, out.values), state.cuts["out"], touched,
            (fresh.coords, fresh.values), _spans(keys, R * plan.tile_l, touched),
        )
        return COOTensor(coords, values, spec.output_shape, check=False), cuts

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

        The new operand, tables and output are computed into locals and
        committed in one final step, so a delta that raises leaves the
        stream intact.  Deltas on one stream run one at a time under its
        lock; deltas on different streams run concurrently.
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

            spec, plan = state.spec, state.plan
            tile = plan.tile_l if side == "left" else plan.tile_r
            own_ext, partner_ext = (spec.L, spec.R) if side == "left" else (spec.R, spec.L)
            num_tiles = state.tables[side].num_tiles
            partner_nnz = float(state.tables[_OTHER[side]].nnz)

            mode, n_touched, fraction = "noop", 0, 0.0
            if delta.n_ops:
                op, op_cuts, touched, fresh = self._patch_operand(
                    state, side, delta, tile
                )
                n_touched = int(touched.shape[0])

                # -- Section 5.1 pricing of the incremental path ------------
                # Work is multiply-accumulate volume (a tile pair costs
                # nnz(HL_i) * nnz(HR_j), so the partner's volume cancels)
                # plus the re-drained output rows, modeled as the plan's
                # output density (Eq. 5.1) times the patched index space.
                density = plan.est_output_density
                full = float(op.nnz) * partner_nnz + (
                    density * float(own_ext) * float(partner_ext))
                inc = float(fresh.nnz) * partner_nnz + density * float(
                    min(n_touched * tile, own_ext)) * float(partner_ext)
                fraction = inc / full if full > 0 else 1.0

                mode = "incremental" if fraction <= self.staleness_threshold else "full"
                if force is not None:
                    mode = force
                if mode == "incremental":
                    tables, output, out_cuts = self._patch(
                        state, side, op.nnz, fresh, touched, tile
                    )
                else:
                    tables, output, out_cuts = self._rebuild(state, side, op, tile)
                tensor = _decode(spec, side, op)

            # -- Commit: nothing above wrote to the stream's state ----------
            if mode != "noop" and self.runtime is not None:
                self.runtime.invalidate_operand(state.tensors[side])
            with self._lock:
                if mode != "noop":
                    state.tensors[side], state.ops[side] = tensor, op
                    state.tables[side], state.cuts[side] = tables, op_cuts
                    state.output, state.cuts["out"] = output, out_cuts
                if mode == "incremental":
                    self.counters.stream_incremental += 1
                elif mode == "full":
                    self.counters.stream_full += 1
                stats = StreamStats(
                    name=state.name, side=side, mode=mode, seq=state.seq[side],
                    tiles_touched=n_touched, tiles_total=num_tiles,
                    modeled_fraction=float(fraction),
                    seconds=time.perf_counter() - t0,
                    output_nnz=state.output.nnz,
                )
                state.seq[side] += 1
                self._deltas[mode] += 1
                self._seconds[mode] += stats.seconds
                self._fraction_sum += stats.modeled_fraction
            return stats

    def _patch(
        self, state: StreamState, side: str, nnz: int,
        fresh: LinearizedOperand, touched: np.ndarray, tile: int,
    ) -> tuple[TiledTables, COOTensor, np.ndarray]:
        """Re-contract only the touched tiles, whose rows are ``fresh``;
        returns patched tables (``nnz`` in all), the output and its cuts."""
        h_fresh = build_tiled_tables(
            fresh, tile, n_workers=self.n_workers, counters=self.counters
        )
        output, out_cuts = self._replace_tile_rows(
            state, side, touched,
            *self._contract_rows(state, side, fresh, h_fresh),
        )
        old = state.tables[side]
        tables = list(old.tables)
        for t in touched.tolist():
            tables[t] = h_fresh.tables[t]
        return TiledTables(tile, old.num_tiles, tables, nnz), output, out_cuts

    def _rebuild(
        self, state: StreamState, side: str, op: LinearizedOperand, tile: int,
    ) -> tuple[TiledTables, COOTensor, np.ndarray]:
        """Full recompute: fresh tables for the mutated side, full kernel."""
        h_new = build_tiled_tables(
            op, tile, n_workers=self.n_workers, counters=self.counters
        )
        return (h_new, *self._output_of(
            state, *self._contract_rows(state, side, op, h_new)))

    def result(self, name: str) -> COOTensor:
        """The stream's current canonical output."""
        return self._state(name).output

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
