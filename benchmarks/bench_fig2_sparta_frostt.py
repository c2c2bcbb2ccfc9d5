"""Figure 2a/2b reproduction: FaSTCC speedup over Sparta on FROSTT.

For each FROSTT contraction this harness measures Sparta (the CM
baseline) and FaSTCC (model-chosen tile and best-swept tile), then
replays both at each platform's thread count through the scheduling
simulator (8 threads = desktop, Figure 2a; 64 threads = server, Figure
2b).  Printed speedups are Sparta time / FaSTCC time, the paper's
y-axis; the paper's qualitative claims to check are:

* FaSTCC wins clearly on the chicago and NIPS contractions;
* vast and uber show little or no improvement — their outputs are tiny
  and dense, so hash-table construction dominates (Section 6.4);
* the model-chosen tile tracks the best tile closely.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import render_table
from repro.errors import WorkspaceLimitError

from common import (
    FROSTT_ORDER,
    load_operands,
    simulate_sparta_parallel,
    time_fastcc,
    time_method,
    tile_candidates,
    simulated_parallel_time,
)

THREAD_COUNTS = {"desktop(8t)": 8, "server(64t)": 64}


def swept_runs(case_name: str, repeats: int):
    """All tile-sweep runs for a case (measured once, reused per thread
    count), each best of ``repeats`` like the model tile and Sparta."""
    spec, _, _ = load_operands(case_name)
    runs = []
    for tile in tile_candidates(spec, span=3):
        try:
            runs.append(time_fastcc(case_name, tile_size=tile, repeats=repeats))
        except WorkspaceLimitError:
            continue
    return runs


def best_tile_run(case_name: str, repeats: int, n_threads: int = 1):
    """The best swept tile *for a given thread count* — the paper's
    "best tile size" bars are per platform, so the sweep is judged by
    the simulated time at that platform's thread count."""
    runs = swept_runs(case_name, repeats)
    return min(runs, key=lambda r: simulated_parallel_time(r, n_threads))


def build_rows(cases=None, repeats=1):
    rows = []
    for name in cases or FROSTT_ORDER:
        sparta_s = time_method(name, "sparta", repeats=repeats)
        model_run = time_fastcc(name, repeats=repeats)
        sweep = swept_runs(name, repeats)
        row = [name]
        for label, k in THREAD_COUNTS.items():
            sparta_k = simulate_sparta_parallel(name, sparta_s, k)
            model_k = simulated_parallel_time(model_run, k)
            best_k = min(simulated_parallel_time(r, k) for r in sweep)
            row += [sparta_k / model_k, sparta_k / best_k]
        rows.append(row)
    return rows


def main():
    rows = build_rows(repeats=2)
    print("Figure 2a/2b — FaSTCC speedup over Sparta (FROSTT)")
    print(
        render_table(
            ["case",
             "8t model-tile", "8t best-tile",
             "64t model-tile", "64t best-tile"],
            rows,
        )
    )
    wins = sum(1 for r in rows if r[1] > 1.0)
    print(f"\ncases with >1x speedup at 8 threads (model tile): {wins}/{len(rows)}")
    print("expected shape: NIPS wins biggest; vast/uber improve least "
          "(construction-bound, Section 6.4).")

    # Section 6.4's explanation, verified directly: for vast/uber the
    # hash-table construction phase dominates FaSTCC's runtime.
    print("\nFaSTCC phase split (fraction of time in table construction):")
    for name in FROSTT_ORDER:
        run = time_fastcc(name)
        total = sum(run.phase_seconds.values())
        frac = run.phase_seconds.get("build_tables", 0.0) / total if total else 0.0
        print(f"  {name:10s} build_tables: {frac:5.1%}")


# ---------------------------------------------------------------------------
# pytest entries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_name", ["chic_01", "chic_123", "NIPS_23"])
def test_fastcc_beats_sparta(benchmark, case_name):
    """FaSTCC's kernel must beat Sparta on the contraction-heavy cases
    even single-threaded."""
    sparta_s = time_method(case_name, "sparta")
    run = benchmark(lambda: time_fastcc(case_name))
    assert run.seconds < sparta_s


@pytest.mark.parametrize("case_name", FROSTT_ORDER)
def test_sparta_time(benchmark, case_name):
    if case_name in ("chic_0",):
        pytest.skip("slow under benchmark rounds; measured by main()")
    benchmark.pedantic(
        lambda: time_method(case_name, "sparta"), rounds=1, iterations=1
    )


def test_model_tile_tracks_best():
    """Model-chosen tile within 2.5x of the best swept tile (paper:
    'typically close to the best possible')."""
    for name in ["chic_01", "chic_123", "NIPS_23", "uber_123"]:
        model_run = time_fastcc(name, repeats=2)
        best = best_tile_run(name, repeats=2)
        assert model_run.seconds <= 2.5 * best.seconds + 0.01, name


if __name__ == "__main__":
    main()
