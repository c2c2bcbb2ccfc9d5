"""End-to-end benchmark of the FaSTCC reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload paper16_cold [--seed 7] [--seconds 18] [--trace 0|1]
    python3 perfbench/run.py --all [--seed 7] [--seconds 18] [--trace 0|1] [--runs N]
    python3 perfbench/run.py --compare BASE.json[:LABEL] NEW.json[:LABEL]

One workload run prints its report, then as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
every end-to-end metric of ``BENCHMARK.json``, or with ``--trace 1``
every per-layer one (the traced run also writes a Chrome trace under
``perfbench/out/``).  It exits 1 when an output is wrong and 2 when the
repository's sources are missing.

``--all`` runs every workload, each in its own process, one after
another; with ``--trace 1`` each runs untraced and then traced, and the
difference is printed as the tracing overhead.  ``--record FILE``
appends each run to a JSON run set that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _stop_children() -> None:
    """Stop multiprocessing's resource tracker, then kill and reap any
    other child process still running, and wait for each to end.

    The shard routers' queues start the tracker on their first
    semaphore, and it otherwise lives on until after this process has
    exited.  It must stop only after the last semaphore is released:
    queue feeder threads hold theirs until they end, and a semaphore
    released after the stop starts a fresh tracker that outlives this
    process.  multiprocessing's own exit handler releases them all and
    joins the feeders, so this runs after it: exit handlers run in
    reverse order of registration, and this one is registered before
    multiprocessing is first imported.  Every process the benchmark
    starts is a direct child of this one, so the sweep over ``/proc``
    leaves none behind whatever path led here.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def _child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                # the fields after the parenthesised name: state, ppid, ...
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload")
    mode.add_argument("--all", action="store_true",
                      help="run every workload, one process each")
    mode.add_argument("--compare", nargs=2, metavar="RUNS.json[:LABEL]",
                      help="compare two run sets (base first) by the bounds "
                           "in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=7,
                   help="input seed (default 7: the registry's own inputs)")
    p.add_argument("--seconds", type=float, default=18.0,
                   help="how long each workload measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: record spans and report per-layer metrics")
    p.add_argument("--runs", type=int, default=1,
                   help="with --all: runs per workload, seeds seed, seed+1, ...")
    p.add_argument("--record", metavar="FILE",
                   help="append each run's full report to this run set")
    p.add_argument("--label", default="run",
                   help="label stored with recorded runs")
    p.add_argument("--report", metavar="FILE", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # A terminated run unwinds like an interrupted one, so every
    # ``finally`` closes what it started and the exit handlers run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all:
        return _suite(args)
    return _one(args)


def _one(args) -> int:
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    manifest = harness.load_manifest()
    report, spans = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))
    print(report.render())
    if spans is not None:
        path = os.path.join(
            harness.OUT_DIR, f"trace_{args.workload}_s{args.seed}.json")
        harness.write_json(path, spans.chrome_trace(
            lane_per_op=args.workload == "serve_sharded"))
        print(f"chrome trace: {os.path.relpath(path, ROOT)} "
              f"({len(spans)} spans)")
    doc = report.to_json()
    if args.report:
        harness.write_json(args.report, doc)
    if args.record:
        _record(args.record, doc, args.label)
    sys.stdout.flush()
    print(report.result_line(manifest))
    return 0 if report.correct else 1


def _record(path: str, doc: dict, label: str) -> None:
    import harness

    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runset = json.load(fh)
    else:
        runset = {"machine": harness.machine_info(), "runs": []}
    runset["runs"].append(dict(doc, label=label))
    harness.write_json(path, runset)


def _suite(args) -> int:
    import harness
    from workloads import WORKLOADS

    manifest = harness.load_manifest()
    e2e_names = [m["name"] for m in manifest["end_to_end"]]
    traces = (0, 1) if args.trace else (0,)
    docs, failures = [], []
    for run in range(args.runs):
        seed = args.seed + run
        for name in WORKLOADS:
            pair = {}
            for trace in traces:
                out = os.path.join(harness.OUT_DIR,
                                   f"report_{name}_s{seed}_t{trace}.json")
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace),
                       "--report", out]
                print(f"== {name} seed {seed} trace {trace}", flush=True)
                if os.path.exists(out):
                    os.remove(out)
                code = subprocess.run(cmd, cwd=ROOT).returncode
                if not os.path.exists(out):
                    failures.append(f"{name} seed {seed}: exit {code}, no report")
                    continue
                with open(out, encoding="utf-8") as fh:
                    doc = json.load(fh)
                docs.append(doc)
                pair[trace] = doc
                if args.record:
                    _record(args.record, doc, args.label)
                if code != 0 or not doc["correct"]:
                    failures.append(f"{name} seed {seed} trace {trace}")
            if len(pair) == 2:
                print(f"tracing overhead, {name} (traced vs untraced): "
                      + ", ".join(
                          f"{m} {pair[1]['e2e'][m]['value'] / pair[0]['e2e'][m]['value'] - 1:+.1%}"
                          for m in e2e_names))
    _summary(docs, e2e_names)
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"VERIFY {'FAIL' if failures else 'PASS'}: {len(docs)} runs")
    return 1 if failures else 0


def _summary(docs, e2e_names) -> None:
    rows = [d for d in docs if not d["trace"]]
    if not rows:
        return
    width = max(len(n) for n in e2e_names) + 2
    print("\nend-to-end summary (untraced runs)")
    print(f"{'workload':<15}{'seed':>5}  " + "".join(
        f"{n:>{width}}" for n in e2e_names))
    for d in rows:
        print(f"{d['workload']:<15}{d['seed']:>5}  " + "".join(
            f"{d['e2e'][n]['value']:>{width}.4g}" for n in e2e_names))


if __name__ == "__main__":
    # Not at import: the shard processes re-import this file, and the
    # tracker they share is not theirs to stop.
    atexit.register(_stop_children)
    sys.exit(main())
