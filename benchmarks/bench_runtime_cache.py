"""Repeated-contraction benchmark for the adaptive runtime's caches.

Serving traffic re-issues the same structural contraction over and
over; the adaptive runtime (``repro.runtime``) answers repeat calls
from its plan cache and reuses the operands' linearized forms and tiled
tables, leaving only the irreducible work (co-iteration, accumulation,
drain, delinearization).  This harness measures that directly: for each
registry case, call 1 is cold (plans, linearizes, builds tables) and
calls 2..N are warm.  The acceptance bar is a >= 1.3x wall-clock
improvement on the warm calls, with counters proving the warm calls
skipped planning and table construction outright.

Run: ``PYTHONPATH=src python benchmarks/bench_runtime_cache.py``
"""

from __future__ import annotations

import statistics

from common import effective_repeats
from repro.data.registry import get_case
from repro.machine.specs import DESKTOP
from repro.runtime import ContractionRuntime

#: Cases spanning both families and both accumulator kinds.
CASES = ["chic_01", "uber_123", "vast_014", "NIPS_23", "G-vvoo"]

#: Acceptance threshold on warm-vs-cold wall clock.
SPEEDUP_FLOOR = 1.3


def bench_case(case_name: str, warm_calls: int = 6) -> dict:
    """Measure one case: cold call, then ``warm_calls`` warm repeats."""
    left, right, pairs = get_case(case_name).load()
    runtime = ContractionRuntime(machine=DESKTOP, calibrate=False)

    _, cold = runtime.contract(
        left, right, pairs, name=f"{case_name}/cold", return_record=True
    )
    warm_records = [
        runtime.contract(
            left, right, pairs, name=f"{case_name}/warm{k}",
            return_record=True,
        )[1]
        for k in range(warm_calls)
    ]

    c = runtime.counters
    skipped_planning = c.plan_cache_hits == len(warm_records)
    skipped_builds = (
        c.table_builds == 2
        and c.table_reuse_hits == 2 * len(warm_records)
    )
    warm_median = statistics.median(r.seconds for r in warm_records)
    return {
        "case": case_name,
        "cold_s": cold.seconds,
        "warm_median_s": warm_median,
        "speedup": cold.seconds / warm_median if warm_median > 0 else float("inf"),
        "skipped_planning": skipped_planning,
        "skipped_builds": skipped_builds,
        "accumulator": cold.accumulator,
    }


def main() -> None:
    warm_calls = effective_repeats(6) * 3  # 3 warm calls in quick mode
    rows = [bench_case(name, warm_calls=warm_calls) for name in CASES]
    print("Adaptive runtime: cold call vs warm (plan + tables cached)")
    print(f"{'case':<10} {'acc':<7} {'cold (s)':>10} {'warm med (s)':>13} "
          f"{'speedup':>8}  skipped")
    for r in rows:
        skipped = []
        if r["skipped_planning"]:
            skipped.append("planning")
        if r["skipped_builds"]:
            skipped.append("tables")
        verdict = "PASS" if r["speedup"] >= SPEEDUP_FLOOR else "FAIL"
        print(f"{r['case']:<10} {r['accumulator']:<7} {r['cold_s']:>10.4f} "
              f"{r['warm_median_s']:>13.4f} {r['speedup']:>7.2f}x  "
              f"{'+'.join(skipped) or 'NONE':<16} [{verdict}]")
    passing = [r for r in rows if r["speedup"] >= SPEEDUP_FLOOR]
    geo = 1.0
    for r in rows:
        geo *= r["speedup"]
    geo **= 1.0 / len(rows)
    print(f"\n{len(passing)}/{len(rows)} cases meet the {SPEEDUP_FLOOR}x bar; "
          f"geometric-mean warm speedup {geo:.2f}x")
    if not all(r["skipped_planning"] and r["skipped_builds"] for r in rows):
        print("WARNING: some warm calls re-planned or rebuilt tables")


if __name__ == "__main__":
    main()
