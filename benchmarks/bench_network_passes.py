"""Plan annotations: CSE / dead-skip / hoist vs the plain executor.

:func:`repro.network.dataflow.annotate_plan` marks network plans with
annotations the executor honors under runtime guards (content-digest
checks, zero-premise re-validation), so results stay bit-identical to
the unannotated plan.  This harness measures what the annotations buy
on three workload shapes:

* **shared-branch** — a QC-style two-term expression whose branches
  share a factor subnetwork (the same ``A·B`` chain appears under two
  index labelings): the CSE annotation marks the duplicate steps and the
  executor computes the shared intermediates once;
* **repeated-execution** — the same network contracted many times over
  stable operands (an inference-style loop): ``prepare()`` hoists the
  loop-invariant linearizations/tiled tables into pinned runtime cache
  entries and replays the reduced plan;
* **micro-batch** — identical requests sharing one
  :class:`~repro.network.executor.StepResultCache`, the serve-layer
  cross-request CSE path.

Each row compares the no-pass baseline against the annotated plan and
reports the measured speedup plus the relevant hit-rate counter.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from common import effective_repeats, quick_mode

from repro.analysis.reporting import render_table
from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP
from repro.network import NetworkExecutor, StepResultCache
from repro.tensors.coo import COOTensor


def shared_branch_fixture(n: int = 220, density: float = 0.02, seed: int = 5):
    """Two isomorphic chain branches sharing every operand.

    ``ij,jk,kl`` and ``ab,bc,cd`` are the same ``A·B·C`` subnetwork
    under two labelings; the outer product of the two branch results
    forms the output.  The CSE annotation marks the second branch's steps as
    duplicates of the first; the runtime digest guard confirms the
    operands really match before reusing.
    """
    nnz = max(8, int(density * n * n))
    a = random_coo((n, n), nnz=nnz, seed=seed)
    b = random_coo((n, n), nnz=nnz, seed=seed + 1)
    c = random_coo((n, 8), nnz=max(8, 4 * 8), seed=seed + 2)
    return "ij,jk,kl,ab,bc,cd->ilad", [a, b, c, a, b, c]


def dead_branch_fixture(n: int = 200, seed: int = 9):
    """A chain whose middle operand is empty: every downstream step is
    statically zero and the dead annotation lets the executor skip it."""
    a = random_coo((n, n), nnz=6 * n, seed=seed)
    empty = COOTensor.empty((n, n))
    c = random_coo((n, n), nnz=6 * n, seed=seed + 1)
    return "ij,jk,kl->il", [a, empty, c]


def repeated_fixture(n: int = 240, seed: int = 13):
    """A three-step chain contracted repeatedly over stable operands."""
    a = random_coo((n, n), nnz=10 * n, seed=seed)
    b = random_coo((n, n), nnz=10 * n, seed=seed + 1)
    c = random_coo((n, n), nnz=10 * n, seed=seed + 2)
    d = random_coo((n, 12), nnz=6 * 12, seed=seed + 3)
    return "ij,jk,kl,lm->im", [a, b, c, d]


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_shared_branch(repeats: int):
    subs, ops = shared_branch_fixture()
    base = NetworkExecutor(machine=DESKTOP, passes=False)
    opt = NetworkExecutor(machine=DESKTOP)
    ref = base.contract(subs, *ops, optimizer="dp")
    out = opt.contract(subs, *ops, optimizer="dp")
    assert np.array_equal(ref.to_dense(), out.to_dense())
    t_base = _best(lambda: base.contract(subs, *ops, optimizer="dp"), repeats)
    t_opt = _best(lambda: opt.contract(subs, *ops, optimizer="dp"), repeats)
    return t_base, t_opt, f"cse hit rate {opt.metrics()['cse_hit_rate']:.0%}"


def bench_dead_branch(repeats: int):
    subs, ops = dead_branch_fixture()
    base = NetworkExecutor(machine=DESKTOP, passes=False)
    opt = NetworkExecutor(machine=DESKTOP)
    ref = base.contract(subs, *ops)
    out = opt.contract(subs, *ops)
    assert np.array_equal(ref.to_dense(), out.to_dense())
    t_base = _best(lambda: base.contract(subs, *ops), repeats)
    t_opt = _best(lambda: opt.contract(subs, *ops), repeats)
    return t_base, t_opt, f"dead skips {opt.metrics()['dead_skips']}"


def bench_repeated(repeats: int, loop: int = 20):
    """Repeated execution under operand-cache pressure.

    Both executors run with a small runtime operand cache and a
    distractor contraction interleaved between iterations (the serving
    mix): the baseline re-linearizes and re-tiles its operands after
    every eviction, while ``prepare()`` pins the hoisted entries so
    they survive the churn.
    """
    subs, ops = repeated_fixture()
    distractor_subs, distractor_ops = repeated_fixture(n=80, seed=41)
    base = NetworkExecutor(machine=DESKTOP, passes=False,
                           operand_cache_size=2)
    opt = NetworkExecutor(machine=DESKTOP, operand_cache_size=2)
    ref = base.contract(subs, *ops)

    def run_base():
        for _ in range(loop):
            base.contract(distractor_subs, *distractor_ops)
            base.contract(subs, *ops)

    t_base = _best(run_base, repeats)
    with opt.prepare(subs, *ops) as prepared:
        out = prepared.execute()
        assert np.array_equal(ref.to_dense(), out.to_dense())

        def run_opt():
            for _ in range(loop):
                opt.contract(distractor_subs, *distractor_ops)
                prepared.execute()

        t_opt = _best(run_opt, repeats)
        note = f"{prepared.tables_built} tables hoisted, {loop} executions"
    return t_base, t_opt, note


def bench_micro_batch(repeats: int, batch: int = 6):
    subs, ops = repeated_fixture(seed=29)
    base = NetworkExecutor(machine=DESKTOP, passes=False)
    opt = NetworkExecutor(machine=DESKTOP)
    ref = base.contract(subs, *ops)

    def run_base():
        for _ in range(batch):
            base.contract(subs, *ops)

    def run_opt():
        cache = StepResultCache()
        for _ in range(batch):
            opt.contract(subs, *ops, cse_cache=cache)
        return cache

    cache = run_opt()
    out = opt.contract(subs, *ops)
    assert np.array_equal(ref.to_dense(), out.to_dense())
    stats = cache.stats()
    t_base = _best(run_base, repeats)
    t_opt = _best(run_opt, repeats)
    note = f"batch cache {stats['hits']} hits / {stats['misses']} misses"
    return t_base, t_opt, note


WORKLOADS = [
    ("shared-branch", bench_shared_branch),
    ("dead-branch", bench_dead_branch),
    ("repeated-execution", bench_repeated),
    ("micro-batch", bench_micro_batch),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="clamp repeats to 1")
    args = parser.parse_args(argv if argv is not None else [])
    if args.quick:
        os.environ["REPRO_BENCH_QUICK"] = "1"

    repeats = effective_repeats(5)
    print("Plan annotations vs plain executor (desktop model)")
    rows = []
    for name, fn in WORKLOADS:
        t_base, t_opt, note = fn(repeats)
        rows.append([
            name, f"{t_base:.4f}", f"{t_opt:.4f}",
            f"{t_base / t_opt:.2f}x", note,
        ])
    print(render_table(
        ["workload", "no-pass s", "passes s", "speedup", "notes"], rows
    ))
    print(
        "\nevery optimized result is asserted bit-identical to the "
        "unoptimized plan before timing; speedups come from skipping "
        "digest-confirmed duplicate steps (cse), statically-zero steps "
        "(dead), and re-built tables across executions (hoist/prepare)."
    )
    return 0


# ---------------------------------------------------------------------------
# pytest entries
# ---------------------------------------------------------------------------


def test_passes_bit_identical():
    for subs, ops in (shared_branch_fixture(n=60),
                      dead_branch_fixture(n=50),
                      repeated_fixture(n=60)):
        base = NetworkExecutor(machine=DESKTOP, passes=False)
        opt = NetworkExecutor(machine=DESKTOP)
        ref = base.contract(subs, *ops, optimizer="dp")
        out = opt.contract(subs, *ops, optimizer="dp")
        assert np.array_equal(ref.to_dense(), out.to_dense())


def test_shared_branch_cse_hits():
    subs, ops = shared_branch_fixture(n=60)
    opt = NetworkExecutor(machine=DESKTOP)
    opt.contract(subs, *ops, optimizer="dp")
    assert opt.metrics()["cse_hits"] >= 2


def test_micro_batch_cache_hits():
    subs, ops = repeated_fixture(n=60)
    opt = NetworkExecutor(machine=DESKTOP)
    cache = StepResultCache()
    for _ in range(3):
        opt.contract(subs, *ops, cse_cache=cache)
    assert cache.stats()["hits"] > 0


def test_repeated_execution_speedup():
    if quick_mode():
        import pytest

        pytest.skip("quick mode skips measured speedups")
    t_base, t_opt, _ = bench_repeated(repeats=2, loop=10)
    assert t_opt < t_base


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
