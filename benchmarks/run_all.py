"""Run every benchmark harness and collect outputs (artifact driver).

Usage:  python benchmarks/run_all.py [--out results/] [--quick]

Mirrors the paper's SC artifact workflow: one command regenerates every
table and figure, writing each harness's printed rows to a text file.
``--quick`` restricts repeats so a full pass finishes in a few minutes.
Machine-readable, comparable measurements come from
``perfbench/run.py --record`` instead.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import io
import os
import sys
import time
from contextlib import redirect_stdout

#: Harness modules in paper order (tables, figures, ablations).
HARNESSES = [
    "bench_table1_loop_orders",
    "bench_table2_datasets",
    "bench_table3_model",
    "bench_fig2_sparta_frostt",
    "bench_fig2_sparta_quantum",
    "bench_fig3_scaling",
    "bench_fig4_tile_sweep",
    "bench_fig5_taco",
    "bench_ablation_drain",
    "bench_ablation_hashing",
    "bench_ablation_tiling",
    "bench_ablation_order_vs_tables",
    "bench_ablation_network",
    "bench_network_paths",
    "bench_network_passes",
    "bench_model_accuracy",
    "bench_format_memory",
    "bench_validation_matrix",
    "bench_runtime_cache",
    "bench_backends",
    "bench_serve_slo",
    "bench_serve_shards",
    "bench_autotune",
    "bench_streaming",
]


def run_harness(name: str, out_dir: str) -> tuple[bool, float]:
    """Import and run one harness's main(); capture stdout to a file.

    A harness whose ``main`` takes ``out_dir`` writes its own files
    there; one that returns a non-zero code is recorded as failed.
    """
    module = importlib.import_module(name)
    wants_dir = "out_dir" in inspect.signature(module.main).parameters
    buffer = io.StringIO()
    t0 = time.perf_counter()
    ok = True
    try:
        with redirect_stdout(buffer):
            code = module.main(out_dir=out_dir) if wants_dir else module.main()
        if code:
            ok = False
            buffer.write(f"\nFAILED: main() returned {code!r}\n")
    except Exception as exc:  # noqa: BLE001 - recorded, run continues
        ok = False
        buffer.write(f"\nFAILED: {exc!r}\n")
    elapsed = time.perf_counter() - t0
    path = os.path.join(out_dir, f"{name.removeprefix('bench_')}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buffer.getvalue())
    return ok, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--only", nargs="*", default=None,
                        help="subset of harness names (without bench_)")
    parser.add_argument("--quick", action="store_true",
                        help="clamp every harness's repeats to 1 (smoke "
                             "mode for CI)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(args.out, exist_ok=True)
    if args.quick:
        # Harnesses read this through benchmarks.common.quick_mode().
        os.environ["REPRO_BENCH_QUICK"] = "1"

    selected = HARNESSES
    if args.only:
        wanted = {f"bench_{n.removeprefix('bench_')}" for n in args.only}
        selected = [h for h in HARNESSES if h in wanted]
        missing = wanted - set(selected)
        if missing:
            parser.error(f"unknown harnesses: {sorted(missing)}")

    failures = 0
    for name in selected:
        ok, elapsed = run_harness(name, args.out)
        status = "ok" if ok else "FAILED"
        print(f"{name:<36} {status:>7}  {elapsed:7.1f}s")
        failures += not ok
    print(f"\n{len(selected) - failures}/{len(selected)} harnesses succeeded; "
          f"outputs in {args.out}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
