"""The FaSTCC kernel: 2-D tiled contraction-index-outer contraction.

Implements Algorithms 5 and 6 of the paper.  The output index space
``L x R`` is partitioned into ``NL x NR`` tiles; each input is split
into per-tile hash tables keyed by the contraction index
(``HL_i : C -> P({0..T_L-1} x V)``).  A tile pair ``(i, j)`` is the unit
of output, cost and scheduling simulation; one task runs a left tile's
whole row of pairs:

1. **construction** — build the tiled tables (parallelizable; the paper
   splits threads between the two operands);
2. **co-iteration** — join ``HL_i``'s keys once against ``HR``'s key
   index, split by ``j``, and form each shared ``c``'s outer product;
3. **accumulation** — upsert partial products into a dense or sparse
   tile workspace (chosen by the model);
4. **drain** — walk the workspace's active entries and remap intra-tile
   to global indices; the master concatenates the pairs' blocks.

The per-``c`` outer products of all matched keys are expanded with the
repeat-based :func:`repro.util.groups.grouped_pairs` in bounded chunks,
so peak extra memory is ``O(chunk_pairs)`` regardless of how many
multiply-accumulates a tile performs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.analysis.counters import Counters, ensure_counters
from repro.backends.base import KernelBackend
from repro.backends.registry import resolve_backend
from repro.core.accumulators import make_accumulator
from repro.core.guards import (
    DEFAULT_DENSE_CELL_GUARD,
    DEFAULT_MAX_TASKS,
    guard_verdict,
)
from repro.core.plan import LinearizedOperand, Plan
from repro.errors import ConfigError, PlanError, ShapeError
from repro.hashing.slice_table import SliceTable
from repro.parallel.taskqueue import TaskQueue
from repro.util.arrays import INDEX_DTYPE, VALUE_DTYPE, ceil_div
from repro.util.groups import (
    concat_ranges,
    group_boundaries,
    grouped_pairs,
    match_sorted_keys,
)

__all__ = [
    "TiledTables",
    "ContractionStats",
    "tiled_co_contract",
    "build_tiled_tables",
    "build_tiled_tables_pair",
]

#: Upper bound on the outer-product expansion processed per chunk.
DEFAULT_CHUNK_PAIRS = 1 << 21


class TiledTables:
    """One operand's per-tile hash tables (``HL_i`` of Section 4.1)."""

    __slots__ = ("tile", "num_tiles", "tables", "nnz", "_key_index")

    def __init__(self, tile: int, num_tiles: int, tables: list[SliceTable | None], nnz: int):
        self.tile = tile
        self.num_tiles = num_tiles
        self.tables = tables
        self.nnz = nnz
        self._key_index = None

    def nonempty_tiles(self) -> list[int]:
        return [i for i, t in enumerate(self.tables) if t is not None]

    def key_index(self) -> tuple[np.ndarray, ...]:
        """All tiles' keys as one sorted ``c -> (tile j, start, count)`` index.

        ``(keys, offsets, tiles, starts, counts)``: distinct keys ascending;
        key ``g``'s entries ``offsets[g]:offsets[g + 1]`` name each tile
        holding it (ascending ``j``) and its slice span there.  Needs a
        nonempty tile; built once and kept, so prebuilt tables share it.
        """
        if self._key_index is None:
            nonempty = self.nonempty_tiles()
            parts = [self.tables[j] for j in nonempty]
            keys = np.concatenate([t.keys() for t in parts])
            order = np.argsort(keys, kind="stable")  # tiles concatenated in ascending j
            starts, counts = (
                np.concatenate(col)[order]
                for col in zip(*(t.spans_for_all_keys() for t in parts))
            )
            # The narrowest dtype makes a stable sort by tile a radix sort.
            tile_ids = np.array(nonempty, dtype=np.min_scalar_type(self.num_tiles))
            tiles = np.repeat(tile_ids, [t.num_keys for t in parts])[order]
            self._key_index = (*group_boundaries(keys[order]), tiles, starts, counts)
        return self._key_index


def build_tiled_tables(
    operand: LinearizedOperand,
    tile: int,
    *,
    n_workers: int = 1,
    counters: Counters | None = None,
) -> TiledTables:
    """Split an operand into per-tile contraction-indexed hash tables.

    An element with external index ``e`` lands in table ``e // tile``
    under intra-tile index ``e % tile`` (Section 4.2's parallel
    construction).  Table construction for distinct tiles is dispatched
    through the task queue, mirroring the paper's per-thread tile
    ownership.
    """
    if tile < 1:
        raise ConfigError(f"tile must be >= 1, got {tile}")
    counters = ensure_counters(counters)
    num_tiles = max(1, ceil_div(operand.ext_extent, tile))
    tables: list[SliceTable | None] = [None] * num_tiles
    if operand.nnz == 0:
        return TiledTables(tile, num_tiles, tables, 0)

    tile_of = operand.ext // np.int64(tile)
    intra = operand.ext % np.int64(tile)
    order = np.argsort(tile_of, kind="stable")
    sorted_tiles = tile_of[order]
    sorted_intra = intra[order]
    sorted_con = operand.con[order]
    sorted_vals = operand.values[order]

    tile_ids, offsets = group_boundaries(sorted_tiles)

    def build(g: int) -> None:
        lo, hi = int(offsets[g]), int(offsets[g + 1])
        tables[int(tile_ids[g])] = SliceTable(
            sorted_con[lo:hi],
            sorted_intra[lo:hi],
            sorted_vals[lo:hi],
            counters=counters,
        )

    TaskQueue(n_workers).run([partial(build, g) for g in range(tile_ids.shape[0])])
    return TiledTables(tile, num_tiles, tables, operand.nnz)


def build_tiled_tables_pair(
    left: LinearizedOperand,
    right: LinearizedOperand,
    tile_l: int,
    tile_r: int,
    *,
    n_workers: int = 1,
    counters: Counters | None = None,
) -> tuple[TiledTables, TiledTables]:
    """Build both operands' tile tables with a split thread team.

    The paper's Section 4.2: half the threads construct ``HL`` while
    the other half construct ``HR`` (OpenMP nested parallel regions).
    With one worker the two builds simply run back to back.
    """
    left_team = max(1, n_workers // 2)
    right_team = max(1, n_workers - left_team)
    records = TaskQueue(2 if n_workers > 1 else 1).run([
        partial(build_tiled_tables, op, tile, n_workers=team, counters=counters)
        for op, tile, team in ((left, tile_l, left_team), (right, tile_r, right_team))
    ])
    return records[0].result, records[1].result


@dataclass
class ContractionStats:
    """Everything measured during one kernel execution.

    ``task_pairs`` is the tile pairs' heavy-first (LPT) order, also their
    blocks' order in the output; ``task_costs`` (seconds per pair, aligned
    with it) feed the scheduling simulator; ``phase_seconds`` breaks the
    run into the paper's four steps.
    """

    plan: Plan | None = None
    counters: Counters = field(default_factory=Counters)
    task_costs: np.ndarray = field(default_factory=lambda: np.empty(0))
    task_pairs: list = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    output_nnz: int = 0
    num_tasks: int = 0

    @property
    def kernel_seconds(self) -> float:
        """Co-iteration + accumulation + drain (the parallel section)."""
        return self.phase_seconds.get("contract", 0.0)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())


def tiled_co_contract(
    left: LinearizedOperand,
    right: LinearizedOperand,
    plan: Plan,
    *,
    n_workers: int = 1,
    counters: Counters | None = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
    dense_cell_guard: int = DEFAULT_DENSE_CELL_GUARD,
    max_tasks: int = DEFAULT_MAX_TASKS,
    trace=None,
    tables: "tuple[TiledTables, TiledTables] | None" = None,
    backend: "str | KernelBackend | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, ContractionStats]:
    """Run Algorithm 6 on linearized operands.

    Returns ``(l_idx, r_idx, values, stats)`` with unique output
    coordinates (each output tile is disjoint, and each tile's drain
    emits unique positions).

    One task per nonempty left tile, heaviest first, joins its keys once
    against :meth:`TiledTables.key_index` (one query per key) and runs its
    pairs on the worker's accumulator; a pair's cost includes a share of
    the join.  The pairs' blocks are concatenated in LPT order (descending
    ``nnz(HL_i) * nnz(HR_j)``), so the output is the same for any worker count.

    ``tables`` injects prebuilt :class:`TiledTables` for both operands
    (from :func:`build_tiled_tables_pair`), skipping the construction
    phase entirely — the runtime layer's table-reuse path for batched
    contractions that share an operand.  Tile sizes must match the plan.

    ``backend`` selects the kernel backend (name, instance, or ``None``
    for the environment default; see :mod:`repro.backends`).  A backend
    with a native pairwise path (scipy's SpGEMM, the array-API dense
    GEMM) short-circuits the tiled loop entirely when it accepts the
    problem; otherwise its element ops run inside Algorithm 6.
    """
    if left.con_extent != right.con_extent:
        raise ShapeError(
            f"contraction extents differ: {left.con_extent} vs {right.con_extent}"
        )
    counters = ensure_counters(counters)
    stats = ContractionStats(plan=plan, counters=counters)
    tile_l, tile_r = plan.tile_l, plan.tile_r
    backend = resolve_backend(backend)

    # A backend-native pairwise path replaces the whole tiled loop.
    # Instrumented runs (``trace``) stay on the tiled kernel — the trace
    # records accumulator access patterns the native path doesn't have.
    if trace is None:
        t0 = time.perf_counter()
        native = backend.contract_linearized(left, right, plan, counters=counters)
        if native is not None:
            l_idx, r_idx, values = native
            stats.phase_seconds["contract"] = time.perf_counter() - t0
            stats.output_nnz = int(values.shape[0])
            return l_idx, r_idx, values, stats

    # Step 1: parallel construction of the tiled hash tables, with the
    # thread pool split between the two operands (paper Section 4.2).
    # Prebuilt tables (the runtime's reuse path) skip this phase.
    t0 = time.perf_counter()
    if tables is not None:
        hl, hr = tables
        if hl.tile != tile_l or hr.tile != tile_r:
            raise PlanError(
                f"prebuilt tables tiled {hl.tile}x{hr.tile} but the plan "
                f"wants {tile_l}x{tile_r}"
            )
        if hl.nnz != left.nnz or hr.nnz != right.nnz:
            raise PlanError(
                "prebuilt tables do not match the operands: "
                f"table nnz ({hl.nnz}, {hr.nnz}) vs operand nnz "
                f"({left.nnz}, {right.nnz})"
            )
    else:
        hl, hr = build_tiled_tables_pair(
            left, right, tile_l, tile_r, n_workers=n_workers, counters=counters
        )
    stats.phase_seconds["build_tables"] = time.perf_counter() - t0

    nonempty_l = hl.nonempty_tiles()
    nonempty_r = hr.nonempty_tiles()
    n_pairs = len(nonempty_l) * len(nonempty_r)
    guard_verdict(
        plan.accumulator, tile_l, tile_r, len(nonempty_l), len(nonempty_r),
        max_tasks=max_tasks, cell_guard=dense_cell_guard,
    ).enforce()
    # Heavy-first (LPT) pair order by the outer-product bound nnz(HL_i) *
    # nnz(HR_j); rank[a, b] places pair (nonempty_l[a], nonempty_r[b]).
    nnz_l = np.array([hl.tables[i].nnz for i in nonempty_l], dtype=np.int64)
    nnz_r = np.array([hr.tables[j].nnz for j in nonempty_r], dtype=np.int64)
    lpt = np.argsort(-np.multiply.outer(nnz_l, nnz_r).ravel(), kind="stable")
    rank = np.argsort(lpt).reshape(len(nonempty_l), len(nonempty_r))
    col_of = dict(zip(nonempty_r, range(len(nonempty_r))))
    grid = [(i, j) for i in nonempty_l for j in nonempty_r]
    stats.task_pairs = [grid[k] for k in lpt.tolist()]
    stats.num_tasks = n_pairs
    counters.tasks += n_pairs
    costs = stats.task_costs = np.zeros(n_pairs, dtype=np.float64)
    blocks: list = [None] * n_pairs

    if len(nonempty_r) == 1:  # the join needs no split by right tile
        r_keys, r_offsets = hr.tables[nonempty_r[0]].keys(), None
        r_starts, r_counts = hr.tables[nonempty_r[0]].spans_for_all_keys()
    elif nonempty_r:
        r_keys, r_offsets, r_tiles, r_starts, r_counts = hr.key_index()

    expected_tile_nnz = max(8, int(plan.est_output_density * tile_l * tile_r) + 1)
    tile_r_np = np.int64(tile_r)
    local = threading.local()  # one accumulator per worker

    def contract_pair(acc, i, j, g_sl, g_cl, g_sr, g_cr):
        """Co-iterate, accumulate and drain one tile pair's matches."""
        acc.reset()
        counters.data_volume += int(g_cl.sum() + g_cr.sum())
        idx_l_payload, vals_l = hl.tables[i].payload
        idx_r_payload, vals_r = hr.tables[j].payload

        # Expand matched outer products in bounded chunks of groups,
        # gathering left payload once per left element and repeating
        # it across its group's right slice.
        cum = np.cumsum(g_cl * g_cr)
        lo = 0
        while lo < cum.shape[0]:
            base = int(cum[lo - 1]) if lo else 0
            hi = int(np.searchsorted(cum, base + chunk_pairs, side="right"))
            hi = max(hi, lo + 1)
            elems_l, reps, ib = grouped_pairs(
                g_sl[lo:hi], g_cl[lo:hi], g_sr[lo:hi], g_cr[lo:hi]
            )
            pos_l = backend.gather(idx_l_payload, elems_l) * tile_r_np
            positions = np.repeat(pos_l, reps) + backend.gather(idx_r_payload, ib)
            vals = backend.multiply(
                np.repeat(backend.gather(vals_l, elems_l), reps),
                backend.gather(vals_r, ib),
            )
            acc.update_batch(positions, vals)
            lo = hi

        # Drain: intra-tile positions back to global output indices.
        positions, values = acc.drain()
        if not positions.shape[0]:
            return None
        counters.output_nnz += positions.shape[0]
        rows = positions // tile_r_np
        l_global = np.int64(i) * tile_l + rows
        r_global = positions - (rows * tile_r_np - np.int64(j) * tile_r)
        return l_global, r_global, values

    def run_row(a: int) -> None:
        """Row task: join HL_i's keys once, then run each of its pairs."""
        i, ranks = nonempty_l[a], rank[a]
        t0 = time.perf_counter()
        acc = getattr(local, "acc", None)
        if acc is None:
            acc = local.acc = make_accumulator(
                plan.accumulator, tile_l, tile_r,
                expected_nnz=expected_tile_nnz, counters=counters,
                cell_guard=dense_cell_guard, trace=trace, backend=backend,
            )
        keys = hl.tables[i].keys()
        starts_l, counts_l = hl.tables[i].spans_for_all_keys()
        counters.hash_queries += keys.shape[0]
        _, src, entry = match_sorted_keys(keys, r_keys)
        if r_offsets is None:
            tiles, cuts = (nonempty_r if src.shape[0] else []), (0, src.shape[0])
        else:
            lo = r_offsets[entry]
            n = r_offsets[entry + 1] - lo
            entry, src = concat_ranges(lo, n), np.repeat(src, n)
            # A stable split by tile keeps each pair's keys ascending.
            by_tile = np.argsort(r_tiles[entry], kind="stable")
            entry, src = entry[by_tile], src[by_tile]
            tiles, cuts = group_boundaries(r_tiles[entry])
        spans = (starts_l[src], counts_l[src], r_starts[entry], r_counts[entry])
        # The row's join is charged to its pairs in equal shares.
        costs[ranks] = (time.perf_counter() - t0) / ranks.shape[0]
        for k in range(len(tiles)):  # staticcheck: ignore[FSTC101] per right tile
            t0 = time.perf_counter()
            j = int(tiles[k])
            slot = ranks[col_of[j]]
            blocks[slot] = contract_pair(
                acc, i, j, *(x[cuts[k] : cuts[k + 1]] for x in spans)
            )
            costs[slot] += time.perf_counter() - t0

    rows = np.argsort(-nnz_l, kind="stable") if nonempty_r else []
    t0 = time.perf_counter()
    TaskQueue(n_workers).run([partial(run_row, int(a)) for a in rows])
    stats.phase_seconds["contract"] = time.perf_counter() - t0

    # Step 4 epilogue: the master concatenates the pairs' blocks in
    # heavy-first order, whichever worker produced them.
    t0 = time.perf_counter()
    empty = [np.empty(0, dtype) for dtype in (INDEX_DTYPE, INDEX_DTYPE, VALUE_DTYPE)]
    parts = [b for b in blocks if b is not None]
    l_idx, r_idx, values = (np.concatenate(col) for col in zip(empty, *parts))
    stats.phase_seconds["merge_output"] = time.perf_counter() - t0
    stats.output_nnz = int(values.shape[0])
    return l_idx, r_idx, values, stats
