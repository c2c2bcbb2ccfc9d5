"""Streaming deltas: incremental tile patching vs. full recompute.

Scenario: a long-lived contraction whose left operand takes a steady
trickle of point mutations — the serving shape the streaming subsystem
(`repro.streaming`) exists for.  Each delta is confined to one row
block, so it touches ~1% of the plan's left tiles; the incremental
engine re-contracts only those tiles against the partner's cached
tables and patches the stored output, while the baseline recomputes
the whole contraction from the mutated tensor.

Two engines are registered on identical operands under the same pinned
plan.  The same canonical delta stream is applied to both — one under
the engine's own staleness pricing (which must choose the incremental
path), one with ``force="full"`` — and after every delta the two
outputs are checked **bit-identical** (same coordinates, same value
bytes), so the speedup is measured between paths that provably agree.
Each path is timed from the delta through the read of its output
(``apply_delta`` plus ``result()``).

The PASS bar is the repository's acceptance criterion: for deltas
touching at most 1% of the tiles, the incremental path must run at
least 5x faster than full recompute (quick mode included).  ``main``
returns 1 on FAIL, so the script exits non-zero and ``run_all.py``
records the harness as failed.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import quick_mode  # noqa: E402

from repro.data.random_tensors import random_coo  # noqa: E402
from repro.machine.specs import DESKTOP  # noqa: E402
from repro.streaming import DeltaBatch, IncrementalEngine  # noqa: E402

#: Left rows and the forced tile edge: 8192 / 64 = 128 left tiles, so a
#: one-block delta touches < 1% of them.
LEFT_ROWS = 8192
TILE = 64

#: Contracted extent and output columns.
K, COLS = 64, 256

SPEEDUP_BAR = 5.0


def _delta_for_block(rng, shape, block: int) -> DeltaBatch:
    """A small insert/update/delete batch confined to one row block."""
    base = block * TILE
    rows = base + rng.integers(0, TILE, 6)
    cols = rng.integers(0, shape[1], 6)
    ops = [
        ("insert", (int(rows[i]), int(cols[i])), float(i + 1))
        for i in range(4)
    ] + [
        ("update", (int(rows[4]), int(cols[4])), 2.5),
        ("delete", (int(rows[5]), int(cols[5])), 0.0),
    ]
    return DeltaBatch.from_ops(ops, shape)


def main() -> int:
    deltas = 6 if quick_mode() else 24
    nnz_l = 20_000 if quick_mode() else 60_000
    nnz_r = 8_000

    left = random_coo((LEFT_ROWS, K), nnz=nnz_l, seed=0)
    right = random_coo((K, COLS), nnz=nnz_r, seed=1)

    inc = IncrementalEngine(DESKTOP)
    full = IncrementalEngine(DESKTOP)
    inc.register("s", left, right, [(1, 0)], tile_size=TILE)
    full.register(
        "s", left, right, [(1, 0)], plan=inc._state("s").plan
    )

    rng = np.random.default_rng(7)
    t_inc = t_full = 0.0
    fractions, touched = [], []
    identical = True
    shape = left.shape
    for k in range(deltas):
        delta = _delta_for_block(rng, shape, int(rng.integers(0, 128)))

        # Each path is timed through the read of its output, so neither
        # can look faster by leaving output work to a later call.
        t0 = time.perf_counter()
        stats = inc.apply_delta("s", delta)
        a = inc.result("s")
        t_inc += time.perf_counter() - t0

        t0 = time.perf_counter()
        full.apply_delta("s", delta, force="full")
        b = full.result("s")
        t_full += time.perf_counter() - t0

        fractions.append(stats.modeled_fraction)
        touched.append(stats.tiles_touched / stats.tiles_total)
        identical = identical and (
            np.array_equal(a.coords, b.coords)
            and np.array_equal(a.values, b.values)
        )
        if stats.mode != "incremental":
            identical = False
            print(f"delta {k}: expected the incremental path, got "
                  f"{stats.mode} (fraction {stats.modeled_fraction:.3f})")

    speedup = t_full / t_inc if t_inc > 0 else 0.0
    tiles_total = inc._state("s").hl.num_tiles

    print(f"streaming deltas ({deltas} deltas, left nnz {nnz_l}, "
          f"{tiles_total} left tiles of {TILE} rows):")
    print(f"{'path':<18} {'total':>12} {'per delta':>12}")
    print(f"{'incremental':<18} {t_inc * 1e3:>10.1f}ms "
          f"{t_inc / deltas * 1e3:>10.2f}ms")
    print(f"{'full recompute':<18} {t_full * 1e3:>10.1f}ms "
          f"{t_full / deltas * 1e3:>10.2f}ms")
    print()
    print(f"touched tiles per delta: {max(touched):.2%} max "
          f"(modeled fraction {sum(fractions) / len(fractions):.3f} mean)")
    print(f"outputs bit-identical across all deltas: {identical}")
    print(f"incremental speedup over full recompute: {speedup:.1f}x "
          f"(bar: {SPEEDUP_BAR:.0f}x)")
    verdict = (
        "PASS" if identical and speedup >= SPEEDUP_BAR
        and max(touched) <= 0.01 else "FAIL"
    )
    print(f"verdict: {verdict} (deltas touching <= 1% of tiles must "
          f"patch >= {SPEEDUP_BAR:.0f}x faster than recompute, "
          f"bit-identically)")
    return 0 if verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
