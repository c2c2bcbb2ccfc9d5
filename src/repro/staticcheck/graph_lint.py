"""Task-graph hazard analysis for tile-task schedules.

FaSTCC's parallel section is safe by construction: every tile pair
``(i, j)`` writes exactly one disjoint output tile, so tasks commute and
the dynamic queue may run them in any order.  That safety is an
*invariant of the task list*, not of the executor — a task list with a
repeated tile pair double-accumulates its tile, and a custom kernel
whose tasks share an accumulator tile reintroduces the write-write race
the tiling removed.  This module checks those invariants **before
execution**, from the write sets alone.

Checks
------
``FSTC201``
    Two tasks write the same accumulator tile.  Under the thread-pool
    executor this is a write-write conflict (lost updates on the shared
    tile); even inline it double-counts drained output.
``FSTC202``
    Several tasks *reduce into* the same output region with
    floating-point addition: the result then depends on schedule order
    (fp addition is not associative).  Reported as a warning — the
    deviation is bounded by rounding — unless the reduction is declared
    exact (integer/boolean semirings).
``FSTC203``
    Fewer tasks than workers: the schedule cannot use every worker, so
    simulated/measured speedup saturates at the task count.

Write sets come from :func:`write_sets_for_pairs` (the kernel's
dispatch list), from a :class:`~repro.core.tiled_co.ContractionStats`
(``stats.task_pairs``), or are supplied directly for custom task
graphs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.errors import StaticCheckError
from repro.staticcheck.diagnostics import Diagnostic, make_diagnostic

__all__ = [
    "TileTask",
    "analyze_task_graph",
    "write_sets_for_pairs",
    "hazards_for_stats",
]


@dataclass(frozen=True)
class TileTask:
    """One schedulable task and the accumulator tiles it writes.

    ``writes`` members are hashable tile identities — ``(i, j)`` grid
    coordinates for the FaSTCC kernel.  ``reduces`` marks the writes as
    read-modify-write accumulation (the kernel's upsert) rather than
    exclusive ownership.
    """

    task_id: int
    writes: frozenset = field(default_factory=frozenset)
    reduces: bool = True


def write_sets_for_pairs(pairs: Sequence[tuple]) -> list[TileTask]:
    """Tasks for a tile-pair dispatch list: task ``k`` writes tile
    ``pairs[k]`` (exactly the write set of Algorithm 6's task ``(i, j)``)."""
    return [
        TileTask(task_id=k, writes=frozenset([tuple(p)]))
        for k, p in enumerate(pairs)
    ]


def analyze_task_graph(
    tasks: Sequence[TileTask],
    *,
    n_workers: int | None = None,
    exact_reduction: bool = False,
) -> list[Diagnostic]:
    """Flag hazards in a task graph from its write sets.

    ``exact_reduction`` declares the accumulation order-insensitive
    (integer or boolean semiring), downgrading shared reductions from a
    finding to silence; floating-point addition (the default) keeps the
    FSTC202 warning.
    """
    diags: list[Diagnostic] = []
    writers: dict[Hashable, list[int]] = defaultdict(list)
    for task in tasks:
        for tile in task.writes:
            writers[tile].append(task.task_id)

    for tile, ids in sorted(writers.items(), key=lambda kv: str(kv[0])):
        if len(ids) < 2:
            continue
        shown = ", ".join(str(i) for i in ids[:4]) + ("…" if len(ids) > 4 else "")
        reducing = all(t.reduces for t in tasks if t.task_id in set(ids))
        if not reducing:
            diags.append(make_diagnostic(
                "FSTC201",
                f"tasks {shown} all write accumulator tile {tile}: "
                "write-write conflict (lost updates under any parallel "
                "schedule)",
                hint="repartition so each tile has exactly one owner task",
                location=f"tile {tile}",
            ))
        else:
            # Reducing writers: correct only if the executor serializes
            # them AND the reduction is order-insensitive.  The FaSTCC
            # queue gives no such serialization across tasks.
            diags.append(make_diagnostic(
                "FSTC201",
                f"tasks {shown} concurrently reduce into accumulator tile "
                f"{tile}: the task queue does not serialize distinct tasks, "
                "so updates race",
                hint="merge them into one task or give each its own tile "
                     "and combine at drain",
                location=f"tile {tile}",
            ))
            if not exact_reduction:
                diags.append(make_diagnostic(
                    "FSTC202",
                    f"reduction into tile {tile} spans {len(ids)} tasks: "
                    "floating-point accumulation order — and thus the "
                    "result — depends on the schedule",
                    hint="declare exact_reduction=True for integer "
                         "semirings, or canonicalize the combine order",
                    location=f"tile {tile}",
                ))

    if n_workers is not None and n_workers > 1 and len(tasks) < n_workers:
        diags.append(make_diagnostic(
            "FSTC203",
            f"{len(tasks)} task(s) for {n_workers} workers: speedup is "
            f"capped at {max(1, len(tasks))}x regardless of scheduling",
            hint="shrink the tile size to create more tasks, or lower "
                 "n_workers",
        ))
    return diags


def hazards_for_stats(stats, *, n_workers: int | None = None) -> list[Diagnostic]:
    """Analyze a recorded run's dispatch list (``stats.task_pairs``)."""
    pairs = getattr(stats, "task_pairs", None)
    if pairs is None:
        raise StaticCheckError(
            "stats object has no task_pairs; pass a ContractionStats from "
            "a fastcc run"
        )
    return analyze_task_graph(write_sets_for_pairs(pairs), n_workers=n_workers)
