"""The kernel's two workspace guards and the verdict they give.

A contraction is refused (:class:`~repro.errors.WorkspaceLimitError`,
the paper's Table 3 ``DNF``) when its tile grid dispatches more
tile-pair tasks than the task guard allows, or when one dense tile
workspace has more cells than the cell guard allows.  Both comparisons
live in :func:`guard_verdict`.  The kernel raises from it with its
counts of nonempty tiles; :func:`plan_guard` evaluates it before any
table is built, for ``repro plan`` and each step of a network plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkspaceLimitError
from repro.util.arrays import ceil_div

__all__ = [
    "DEFAULT_MAX_TASKS",
    "DEFAULT_DENSE_CELL_GUARD",
    "GuardVerdict",
    "guard_verdict",
    "plan_guard",
]

#: Upper bound on the number of tile-pair tasks.  A dense accumulator
#: forced onto an ultra-sparse output explodes the tile grid (the paper's
#: Table 3 reports DNF for NIPS mode 2 in exactly this configuration).
DEFAULT_MAX_TASKS = 1 << 21

#: Refuse dense tiles above this cell count instead of thrashing.
DEFAULT_DENSE_CELL_GUARD = 1 << 26


@dataclass(frozen=True)
class GuardVerdict:
    """``"ok"`` or ``"dnf"``, with the task count it was judged on.

    ``tasks`` is the number of tile-pair tasks (an upper bound on it
    before the tables exist); ``reason`` is the error message of a
    ``"dnf"``.
    """

    verdict: str
    tasks: int
    reason: str = ""

    def enforce(self) -> None:
        """Raise :class:`WorkspaceLimitError` on a ``"dnf"`` verdict."""
        if self.verdict == "dnf":
            raise WorkspaceLimitError(self.reason)


def guard_verdict(
    accumulator: str,
    tile_l: int,
    tile_r: int,
    tiles_l: int = 1,
    tiles_r: int = 1,
    *,
    max_tasks: int = DEFAULT_MAX_TASKS,
    cell_guard: int = DEFAULT_DENSE_CELL_GUARD,
) -> GuardVerdict:
    """Judge a ``tiles_l x tiles_r`` grid of ``tile_l x tile_r`` tiles.

    The task guard is checked first; a grid with no tasks allocates no
    workspace, so the cell guard only applies when there is work.
    """
    tasks = tiles_l * tiles_r
    cells = tile_l * tile_r if accumulator == "dense" else 0
    reason = ""
    if tasks > max_tasks:
        reason = (
            f"tile grid of {tiles_l}x{tiles_r} nonempty tiles ({tasks} tasks) "
            f"exceeds the task guard ({max_tasks}); this configuration is "
            "the paper's DNF regime — use a sparse accumulator (larger "
            "tiles) instead"
        )
    elif tasks and cells > cell_guard:
        reason = (
            f"dense tile of {tile_l}x{tile_r} = {cells} cells exceeds the "
            f"memory guard ({cell_guard}); the model should have chosen a "
            "sparse accumulator"
        )
    return GuardVerdict("dnf" if reason else "ok", tasks, reason)


def plan_guard(
    accumulator: str,
    L: int,
    R: int,
    tile_l: int,
    tile_r: int,
    nnz_l: int,
    nnz_r: int,
) -> GuardVerdict:
    """The verdict a planned contraction gets, before any table exists.

    An operand with ``n`` nonzeros occupies at most ``min(grid, n)``
    tiles, so the task count is bounded by that product: a planned
    ``"ok"`` is definitive and a planned ``"dnf"`` is conservative.
    """
    return guard_verdict(
        accumulator, tile_l, tile_r,
        min(ceil_div(L, tile_l), max(0, int(nnz_l))),
        min(ceil_div(R, tile_r), max(0, int(nnz_r))),
    )
