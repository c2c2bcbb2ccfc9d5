"""The four benchmark workloads.

Each ``run_*`` function builds its inputs from the seed, sets the
system up several times (the median is ``setup_s``), measures ops for
about ``seconds`` seconds, checks every output, and returns a
:class:`~harness.Report`.  Only public functions of ``repro`` are
called; with ``trace`` on, each call is wrapped in spans, and the
library's own records (``ContractionStats``, ``RunRecord``,
``StreamStats``, ``Response.timings``, ``metrics_json()``) fill in the
phases the benchmark cannot wrap from outside.

=============  ========================================================
workload       what it stresses
=============  ========================================================
paper16_cold   the paper's 16 Table 3 contractions, each a fresh
               ``contract()``: every phase on every call, no cache
dlpno_warm     the six DLPNO steps through one runtime: plans and
               tables cached away, kernel and bookkeeping remain
serve_sharded  open-loop Poisson traffic into 2 shard processes:
               admission, queueing, IPC, network planning
stream_rw      deltas beside reads on one incremental stream: cache
               invalidation, incremental versus full recompute
=============  ========================================================
"""

from __future__ import annotations

import inspect
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from harness import (
    ROOT,
    SRC,
    Check,
    HostSpeed,
    Report,
    Spans,
    digest,
    latency_metrics,
    layer_breakdown,
    load_manifest,
    peak_rss_mb,
    percentile,
    tail_percentile,
)
from openloop import POLL_S, concat, run_open_loop
from repro import contract
from repro.analysis.counters import Counters
from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.core.tiled_co import build_tiled_tables_pair, tiled_co_contract
from repro.data.frostt import generate_frostt
from repro.data.quantum import MOLECULES, generate_dlpno_operands, generate_te_tensor
from repro.data.random_tensors import random_coo
from repro.data.registry import QUANTUM_CASES, all_cases
from repro.errors import ReproError
from repro.machine.specs import DESKTOP
from repro.network import NetworkExecutor
from repro.runtime import BatchExecutor, BatchItem, ContractionRuntime
from repro.serve import Request, ServiceConfig, ShardedConfig, ShardRouter
from repro.streaming import DeltaBatch, IncrementalEngine
from repro.streaming.delta import DELETE, INSERT, UPDATE

#: The default seed reproduces the registry's own inputs: FROSTT
#: tensors use the seed itself (7), quantum-chemistry ones seed + 4 (11).
DEFAULT_SEED = 7
QC_SEED_OFFSET = 4

#: Kernel-counter fields reported per op (``workspace_cells`` is a peak).
COUNT_FIELDS = ("tasks", "accum_updates", "data_volume", "hash_queries",
                "workspace_cells")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def case_inputs(case, seed: int):
    """Regenerate one registry case from ``seed``.

    The registry's loaders close over each case's generator parameters
    (FROSTT scale and nonzero target, molecule and contraction); reading
    them back keeps this benchmark on the registry's sizes while the
    seed varies.
    """
    params = inspect.getclosurevars(case.loader).nonlocals
    if case.family == "frostt":
        t = generate_frostt(params["tensor"], scale=params["scale"], seed=seed,
                            nnz_target=params["nnz_target"])
        return t, t, [(m, m) for m in params["modes"]]
    return generate_dlpno_operands(params["molecule"], params["contraction"],
                                   seed=seed + QC_SEED_OFFSET)


def _deadline(seconds: float) -> float:
    """Wall-clock cap on a measuring loop, far past its nominal length,
    so a workload whose ops keep failing still ends."""
    return time.perf_counter() + 3 * seconds + 60


def _timed_setup(host: HostSpeed, setups: list, fn):
    """Run one set-up, append its ``(start, seconds)`` to ``setups`` and
    probe the host right after it; returns what ``fn`` returns."""
    t0 = time.perf_counter()
    out = fn()
    setups.append((t0, time.perf_counter() - t0))
    host.probe(3)
    return out


def _setup_metric(report: Report, host: HostSpeed, setups: list,
                  what: str) -> None:
    scaled = [dt * host.scale(t) for t, dt in setups]
    report.e2e["setup_s"] = (statistics.median(scaled), "s",
                             f"median of {len(scaled)}: {what}")
    report.extra["raw.setup_s"] = (
        statistics.median(dt for _, dt in setups), "s", "wall clock")


def _finish(report: Report, host: HostSpeed, samples, classes, *, op: str,
            rss_mb: float, ref_wall_s: float | None = None) -> None:
    """Fill the timing metrics at reference host speed (see
    :class:`~harness.HostSpeed`) from the ``(start, seconds)`` of every
    op that completed OK, and ``classes``: op class -> its samples.

    Each op is scaled by the probes taken nearest its start.  The open
    loop (``ref_wall_s`` given) reports completions over its wall time
    at reference speed as throughput, which follows the offered rate
    unless the system falls behind.
    """
    def at_ref(pairs):
        return [dt * host.scale(t) for t, dt in pairs]

    scaled = at_ref(samples)
    latency_metrics(report, scaled, {k: at_ref(v) for k, v in classes.items()},
                    op=op)
    n = len(scaled)
    if ref_wall_s is None:
        report.e2e["throughput_ops_s"] = (
            n / sum(scaled), "ops/s", f"{n} {op} in {sum(scaled):.2f} s")
    else:
        report.e2e["throughput_ops_s"] = (
            n / ref_wall_s, "ops/s", f"{n} {op} in {ref_wall_s:.2f} s wall")
    report.e2e["peak_rss_mb"] = (rss_mb, "MB", "ru_maxrss")
    raw = [dt for _, dt in samples]
    report.extra["raw.latency_p50_ms"] = (
        percentile(raw, 50) * 1e3, "ms", "wall clock")
    report.extra["raw.latency_tail_ms"] = (
        percentile(raw, tail_percentile(len(raw))) * 1e3, "ms", "wall clock")
    report.extra["host.probe_ms_p50"] = (
        statistics.median(host.seconds) * 1e3, "ms",
        f"of {len(host.seconds)} probes; {HostSpeed.REF_S * 1e3:g} ms is "
        "reference speed")


#: Spans whose self time belongs to a layer other than their name's:
#: the op roots (time outside every wrapped call is the benchmark
#: client's own, and for a served request it is router and IPC time)
#: and the runtime call (time outside its recorded phases).
SELF_LAYER = {
    "paper16.call": "bench.client", "dlpno.iteration": "bench.client",
    "stream.op": "bench.client", "serve.request": "serve.ipc",
    "runtime.contract": "runtime.overhead",
}


def _layers(report: Report, spans: Spans, op_span: str, counts: dict,
            rates: dict) -> None:
    """Per-layer metrics: self-time shares from the spans, kernel
    counts per op, and cache/path rates.  Every per-layer metric of the
    manifest gets a value; a layer the workload does not exercise
    reports 0."""
    per_layer = load_manifest()["per_layer"]
    for layer, row in layer_breakdown(spans, op_span, SELF_LAYER).items():
        name = f"{layer}_share"
        if not any(m["name"] == name for m in per_layer):
            raise RuntimeError(f"span layer {layer!r} has no manifest metric")
        report.layers[name] = (row["share"], "fraction",
                               f"{row['ms_per_op']:.3f} ms self time per "
                               f"{op_span}")
    for name, value in counts.items():
        report.layers[f"core.{name}"] = (
            float(value), "count",
            "peak" if name == "workspace_cells" else "per op")
    report.layers.update(rates)
    for m in per_layer:
        report.layers.setdefault(m["name"], (0.0, m["unit"], "not exercised"))


def _counter_rates(before: dict, after: dict, n_ops: int) -> tuple[dict, dict]:
    diff = {k: after[k] - before.get(k, 0) for k in after}
    counts = {k: diff[k] / max(1, n_ops) for k in COUNT_FIELDS}
    counts["workspace_cells"] = after["workspace_cells"]
    plans = diff["plan_cache_hits"] + diff["plan_cache_misses"]
    tables = diff["table_reuse_hits"] + diff["table_builds"]
    rates = {
        "runtime.plan_hit_rate": (
            diff["plan_cache_hits"] / plans if plans else 0.0, "fraction",
            f"{diff['plan_cache_hits']} of {plans} lookups"),
        "runtime.table_reuse_rate": (
            diff["table_reuse_hits"] / tables if tables else 0.0, "fraction",
            f"{diff['table_reuse_hits']} of {tables} table fetches"),
    }
    return counts, rates


def _record_phases(spans: Spans, parent: int, record) -> None:
    """Lay a ``RunRecord``'s measured phases under its call span; the
    rest of the call is the runtime's own overhead (signature, cache
    lookups, task setup, calibrator)."""
    ph = record.phase_seconds
    spans.add_sequence(parent, [
        ("tensors.linearize", ph.get("linearize", 0.0)),
        ("core.build_tables", ph.get("build_tables", 0.0)),
        ("core.kernel", ph.get("contract", 0.0)),
        ("core.merge", ph.get("merge_output", 0.0)),
        ("tensors.delinearize", ph.get("delinearize", 0.0)),
    ])


# ---------------------------------------------------------------------------
# paper16_cold
# ---------------------------------------------------------------------------

#: What a fresh process does before its first real contraction.
_COLD_START = (
    "import repro\n"
    "from repro.data.random_tensors import random_coo\n"
    "a = random_coo((32, 32), nnz=64, seed=0)\n"
    "repro.contract(a, a, [(1, 0)])\n"
)


def _cold_start() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", _COLD_START], env=env, cwd=ROOT,
                   check=True, timeout=60)


_PHASES = ("tensors.linearize", "core.plan", "core.build_tables",
           "core.kernel", "tensors.delinearize")


def phased_contract(left, right, pairs, counters: Counters):
    """``contract()`` spelled out as its public phases, stamped.

    Same calls, arguments and order as the default ``contract()`` path,
    so the output is bit-identical; returns ``(out, stats, stamps)``
    with one stamp before each phase and one after the last.
    """
    stamps = [time.perf_counter()]
    spec = ContractionSpec(left.shape, right.shape, pairs)
    left_op = spec.linearize_left(left).sum_duplicates()
    right_op = spec.linearize_right(right).sum_duplicates()
    stamps.append(time.perf_counter())
    plan = choose_plan(spec, left_op.nnz, right_op.nnz, DESKTOP)
    stamps.append(time.perf_counter())
    tables = build_tiled_tables_pair(left_op, right_op, plan.tile_l,
                                     plan.tile_r, counters=counters)
    stamps.append(time.perf_counter())
    l_idx, r_idx, values, stats = tiled_co_contract(
        left_op, right_op, plan, counters=counters, tables=tables)
    stamps.append(time.perf_counter())
    out = spec.delinearize_output(l_idx, r_idx, values).sum_duplicates()
    stamps.append(time.perf_counter())
    return out, stats, stamps


def run_paper16(seed: int, seconds: float, trace: bool) -> tuple[Report, Spans | None]:
    report = Report("paper16_cold", seed, seconds, trace)
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        _timed_setup(host, setups, _cold_start)
    cases = [(name, *case_inputs(case, seed))
             for name, case in all_cases().items()]
    rng = np.random.default_rng(seed)
    spans = Spans() if trace else None
    counters = Counters()
    per_case = {c[0]: [] for c in cases}
    build_share = {c[0]: [] for c in cases}
    call_cases, task_costs = [], []
    samples, first, pass1 = [], {}, {}
    busy = 0.0
    calls = mismatched = 0
    errors = []
    deadline = _deadline(seconds)
    # One op is one pass over the 16 cases: the sum of its calls' times,
    # so the host probes taken between calls stay outside it.
    while (busy < seconds or not report.attempted) and time.perf_counter() < deadline:
        report.attempted += 1
        pass_start, pass_s, pass_ok = None, 0.0, True
        for k in rng.permutation(len(cases)):
            name, left, right, pairs = cases[k]
            calls += 1
            host.maybe_probe()
            t0 = time.perf_counter()
            try:
                if trace:
                    out, stats, stamps = phased_contract(left, right, pairs,
                                                         counters)
                else:
                    out = contract(left, right, pairs)
            except ReproError as exc:
                pass_ok = False
                errors.append(f"{name}: {exc}")
                continue
            dt = time.perf_counter() - t0
            pass_start = t0 if pass_start is None else pass_start
            pass_s += dt
            per_case[name].append((t0, dt))
            if trace:
                op_id = calls
                op = spans.add("paper16.call", t0, t0 + dt, op=op_id)
                call_cases.append(name)
                for phase, a, b in zip(_PHASES, stamps, stamps[1:]):
                    span = spans.add(phase, a, b, parent=op, op=op_id)
                    if phase == "core.kernel":
                        spans.add_sequence(span, [(
                            "core.merge",
                            stats.phase_seconds.get("merge_output", 0.0))],
                            end=b)
                build_share[name].append((stamps[3] - stamps[2]) / dt)
                task_costs.extend(stats.task_costs.tolist())
            d = digest(out)
            if name not in first:
                first[name], pass1[name] = d, out
            elif d != first[name]:
                pass_ok = False
                mismatched += 1
        busy += pass_s
        if pass_ok:
            samples.append((pass_start, pass_s))
        else:
            report.failed += 1

    report.checks.append(Check(
        "every pass's output digests equal pass 1's", mismatched == 0,
        f"{report.attempted} passes, {mismatched} calls mismatched"
        + (f"; errors: {errors[:3]}" if errors else "")))
    bad = [name for name, left, right, pairs in cases
           if name in pass1 and not pass1[name].allclose(
               contract(left, right, pairs, method="sparta"), rtol=1e-9)]
    report.checks.append(Check(
        "pass 1 allclose (rtol 1e-9) to method='sparta'", not bad,
        f"{len(pass1) - len(bad)}/{len(cases)} cases"
        + (f", mismatched {bad}" if bad else "")))

    _setup_metric(report, host, setups,
                  "fresh interpreter: import + first contract")
    _finish(report, host, samples, per_case, op="passes", rss_mb=peak_rss_mb())
    if trace:
        same = [name for name, left, right, pairs in cases
                if digest(contract(left, right, pairs)) == first.get(name)]
        report.checks.append(Check(
            "traced outputs bit-identical to untraced contract()",
            len(same) == len(cases), f"{len(same)}/{len(cases)} cases"))
        # Judged on each case's median call: the intermediates
        # phased_contract releases on return, after its last stamp,
        # now and then take a millisecond to free, which is a sizeable
        # share of a 2 ms call.
        coverage = {}
        for name, share in zip(call_cases, spans.coverage("paper16.call")):
            coverage.setdefault(name, []).append(share)
        medians = {n: statistics.median(v) for n, v in coverage.items()}
        worst = min(medians, key=medians.get)
        report.checks.append(Check(
            "phase spans cover >= 95% of the median call of every case",
            medians[worst] >= 0.95,
            f"lowest {worst} {medians[worst]:.3f}; single calls: min "
            f"{min(min(v) for v in coverage.values()):.3f}"))
        snap = counters.snapshot()
        counts = {k: snap[k] / report.attempted for k in COUNT_FIELDS}
        counts["workspace_cells"] = snap["workspace_cells"]
        _layers(report, spans, "paper16.call", counts, {})
        report.extra["core.task_us_p50"] = (
            percentile(task_costs, 50) * 1e6, "us",
            f"p50 of {len(task_costs)} tile-pair tasks")
        for name in per_case:
            report.extra[f"build_tables_share.{name}"] = (
                statistics.median(build_share[name]), "fraction",
                "Section 6.4: table build / call")
    return report, spans


# ---------------------------------------------------------------------------
# dlpno_warm
# ---------------------------------------------------------------------------


def run_dlpno(seed: int, seconds: float, trace: bool) -> tuple[Report, Spans | None]:
    report = Report("dlpno_warm", seed, seconds, trace)
    items = [BatchItem(left, right, tuple(pairs), name=name)
             for name, case in QUANTUM_CASES.items()
             for left, right, pairs in [case_inputs(case, seed)]]
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        # Configured as `repro batch` configures it for these six
        # steps: the operand cache holds all 12 operands.
        runtime = ContractionRuntime(machine=DESKTOP, operand_cache_size=12,
                                     calibrate=True)
        executor = BatchExecutor(runtime)
        cold = _timed_setup(host, setups, lambda: executor.run(items))
    want = [digest(out) for out in cold.outputs]
    direct = [digest(contract(it.left, it.right, it.pairs)) for it in items]
    report.checks.append(Check(
        "iteration 1 bit-identical to contract()", want == direct,
        f"{sum(a == b for a, b in zip(want, direct))}/{len(items)} steps"))

    spans = Spans() if trace else None
    before = runtime.counters.snapshot()
    per_step = {it.name: [] for it in items}
    samples = []
    busy = 0.0
    mismatched = 0
    deadline = _deadline(seconds)
    while (busy < seconds or not samples) and time.perf_counter() < deadline:
        report.attempted += 1
        host.maybe_probe()
        t0 = time.perf_counter()
        try:
            batch = executor.run(items)
        except ReproError:
            report.failed += 1
            continue
        dt = time.perf_counter() - t0
        busy += dt
        samples.append((t0, dt))
        for rec in batch.records:
            per_step[rec.name].append((t0, rec.seconds))
        if trace:
            op_id = report.attempted
            op = spans.add("dlpno.iteration", t0, t0 + dt, op=op_id)
            t = t0
            for rec in batch.records:
                step = spans.add("runtime.contract", t, t + rec.seconds,
                                 parent=op, op=op_id)
                _record_phases(spans, step, rec)
                t += rec.seconds
        if [digest(out) for out in batch.outputs] != want:
            report.failed += 1
            mismatched += 1
    report.checks.append(Check(
        "every warm iteration's digests equal iteration 1's", mismatched == 0,
        f"{len(samples)} iterations, {mismatched} mismatched"))

    _setup_metric(report, host, setups, "fresh runtime + cold iteration")
    _finish(report, host, samples, per_step, op="iterations",
            rss_mb=peak_rss_mb())
    if trace:
        counts, rates = _counter_rates(before, runtime.counters.snapshot(),
                                       len(samples))
        _layers(report, spans, "dlpno.iteration", counts, rates)
        report.extra["runtime.plan_cache_entries"] = (
            len(runtime.plan_cache), "count", "")
        report.extra["runtime.drift_hits"] = (
            runtime.plan_cache.drift_hits, "count", "")
    return report, spans


# ---------------------------------------------------------------------------
# serve_sharded
# ---------------------------------------------------------------------------

#: Contracted extents of the 8 pairwise signatures (400 x c) . (c x 400),
#: chosen so the 2-shard ring routes four to each shard.
SIGNATURE_C = (256, 288, 320, 416, 480, 512, 544, 640)
PAIR_ROWS, PAIR_NNZ = 400, 4000
NETWORK = "imk,mnq,jnq->ijk"
#: Offered rate of the open loop.  At 80 rps the two shards and the
#: client contend for the two cores often enough that a 10% slower host
#: reads 40% slower; 40 rps keeps latency close to service time.
RATE_RPS = 40.0
#: The open loop runs in segments of about this length; between two,
#: once the last request has completed, the host is probed (see
#: ``HostSpeed``), so requests are scaled by probes seconds away.
SEGMENT_S = 2.5


def _serve_inputs(seed: int):
    rng = np.random.default_rng(seed)

    def pair(c):
        return (random_coo((PAIR_ROWS, c), PAIR_NNZ, seed=int(rng.integers(2**31))),
                random_coo((c, PAIR_ROWS), PAIR_NNZ, seed=int(rng.integers(2**31))))

    hot = [pair(c) for c in SIGNATURE_C]
    # The guanine three-term fixture of benchmarks/bench_network_paths.py.
    spec = MOLECULES["guanine"]
    net_seed = seed + 50
    net_ops = (generate_te_tensor("ov", spec, seed=net_seed),
               generate_te_tensor("vv", spec, seed=net_seed + 1),
               generate_te_tensor("ov", spec, seed=net_seed + 2))
    return rng, pair, hot, net_ops


def _serve_traffic(router, host, rng, pair, hot, hot_want, net_ops, net_want,
                   n: int):
    """The open loop: 60% hot pairwise, 20% cold pairwise (fresh
    tensors, same signatures), 20% network.  Arrivals are a Poisson
    process at :data:`RATE_RPS` conditioned on ``n`` arrivals in
    ``n / RATE_RPS`` seconds, so every run offers the same load.

    The rate holds at reference host speed: each segment's schedule is
    stretched by the host's slowdown measured just before it, so the
    shards run at the same utilisation on a slow host as on a fast one
    (queueing grows faster than service time, and scaling latencies
    afterwards cannot undo that).  Returns the request kinds, the
    stamps, and the loop's wall time at reference speed.
    """
    n_hot, n_cold = round(0.6 * n), round(0.2 * n)
    kinds = rng.permutation(["hot"] * n_hot + ["cold"] * n_cold
                            + ["network"] * (n - n_hot - n_cold))
    sigs = rng.permutation(np.arange(n) % len(SIGNATURE_C))
    requests, want = [], []
    for kind, s in zip(kinds, sigs):
        if kind == "hot":
            requests.append(Request.pairwise(*hot[s], [(1, 0)], name="hot"))
            want.append(hot_want[s])
        elif kind == "cold":
            left, right = pair(SIGNATURE_C[s])
            requests.append(Request.pairwise(left, right, [(1, 0)], name="cold"))
            want.append(digest(contract(left, right, [(1, 0)])))
        else:
            requests.append(Request.network(NETWORK, *net_ops, name="network"))
            want.append(net_want)
    span = n / RATE_RPS
    offsets = np.sort(rng.uniform(0.0, span, n))
    n_seg = max(1, round(span / SEGMENT_S))
    cuts = [0, *np.searchsorted(offsets, span * np.arange(1, n_seg) / n_seg), n]
    parts, ref_wall_s = [], 0.0
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if lo == hi:
            continue
        stretch = 1.0 / host.scale(time.perf_counter())
        part = run_open_loop(
            router.submit, requests[lo:hi],
            ((offsets[lo:hi] - span * k / n_seg) * stretch).tolist(),
            lambda i, r, lo=lo: (r.status == "ok"
                                 and digest(r.result) == want[lo + i]))
        parts.append(part)
        ref_wall_s += part.wall_s / stretch
        host.probe(3)
    return kinds, concat(parts), ref_wall_s


def _start_router(warmups) -> ShardRouter:
    """Router start until every shard is ready and has served one
    request of each template (the set-up a client waits for)."""
    config = ShardedConfig(
        n_shards=2, max_in_flight=64,
        service=ServiceConfig(queue_capacity=64, policy="reject", n_workers=1))
    router = ShardRouter(machine=DESKTOP, config=config)
    try:
        router.start()
        for request, want in warmups:
            response = router.call(request, timeout=60.0)
            if response.status != "ok" or digest(response.result) != want:
                raise RuntimeError(f"warm-up {request.name}: {response.status}")
    except BaseException:
        router.close()
        raise
    return router


def run_serve(seed: int, seconds: float, trace: bool) -> tuple[Report, Spans | None]:
    report = Report("serve_sharded", seed, seconds, trace)
    rng, pair, hot, net_ops = _serve_inputs(seed)
    hot_want = [digest(contract(left, right, [(1, 0)])) for left, right in hot]
    net_want = digest(NetworkExecutor(machine=DESKTOP).contract(NETWORK, *net_ops))
    warmups = [(Request.pairwise(*hot[s], [(1, 0)], name="warmup"), hot_want[s])
               for s in range(len(SIGNATURE_C))]
    warmups.append((Request.network(NETWORK, *net_ops, name="warmup"), net_want))

    host = HostSpeed(open_loop=True)
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        _timed_setup(host, setups, lambda: _start_router(warmups)).close()
    router = _timed_setup(host, setups, lambda: _start_router(warmups))
    try:
        kinds, res, ref_wall_s = _serve_traffic(
            router, host, rng, pair, hot, hot_want, net_ops, net_want,
            max(1, round(RATE_RPS * seconds)))
        doc = router.metrics_json()
        queue_stats = router.queue_stats()
    finally:
        router.stop()
        router.close()

    ok = [i for i, good in enumerate(res.ok) if good]
    report.attempted = len(kinds)
    report.failed = len(kinds) - len(ok)
    statuses = {}
    for r in res.responses:
        status = r.status if r is not None else "unanswered"
        statuses[status] = statuses.get(status, 0) + 1
    wrong = sum(r is not None and r.status == "ok" and not good
                for r, good in zip(res.responses, res.ok))
    report.checks.append(Check(
        "every OK response bit-identical to direct contract/NetworkExecutor",
        wrong == 0, f"statuses {statuses}; {wrong} wrong"))
    samples = [(res.due[i], res.latency_s[i]) for i in ok]
    classes = {k: [s for i, s in zip(ok, samples) if kinds[i] == k]
               for k in ("hot", "cold", "network")}
    _setup_metric(report, host, setups,
                  "router start to ready + one request per template")
    _finish(report, host, samples, classes, op="requests",
            rss_mb=peak_rss_mb(children=True), ref_wall_s=ref_wall_s)

    report.extra["offered_rps"] = (RATE_RPS, "rps",
                                   f"{len(kinds)} Poisson arrivals")
    _serve_extra(report, res, ok)

    spans = None
    if trace:
        spans = Spans()
        for i in ok:
            r = res.responses[i]
            due, lat = res.due[i], res.latency_s[i]
            op = spans.add("serve.request", due, due + lat, op=i)
            spans.add("bench.client", due, due + res.late_s[i],
                      parent=op, op=i)
            spans.add_sequence(op, [
                ("serve.queue_wait", r.timings.get("queue_wait", 0.0)),
                ("serve.execute", r.timings.get("execute", 0.0)),
            ], end=due + lat)
        agg = doc.get("aggregate", {})
        rt, net = agg.get("runtime", {}), agg.get("network", {})
        routed = [s["routed"] for s in queue_stats["per_shard"].values()]
        rates_ = {
            "runtime.plan_hit_rate": (rt.get("plan_hit_rate", 0.0), "fraction",
                                      "shard runtimes, whole run"),
            "runtime.table_reuse_rate": (rt.get("table_reuse_rate", 0.0),
                                         "fraction", "shard runtimes, whole run"),
            "network.plan_hit_rate": (net.get("network_plan_hit_rate", 0.0),
                                      "fraction", "shard executors"),
            "network.batch_cse_hits": (float(net.get("batch_cse_hits", 0)),
                                       "count", "cross-request step reuses"),
            "serve.shed_frac": (statuses.get("shed", 0) / len(kinds),
                                "fraction", f"of {len(kinds)} requests"),
            "serve.queue_high_water": (float(queue_stats["high_water"]),
                                       "count", "largest per-shard in-flight"),
            "serve.shard_balance": (
                max(routed) / (sum(routed) / len(routed)), "ratio",
                f"max/mean routed over {routed}"),
        }
        _layers(report, spans, "serve.request", {}, rates_)
    return report, spans


def _serve_extra(report: Report, res, ok) -> None:
    timings = [res.responses[i].timings for i in ok]
    ipc = [res.latency_s[i] - t.get("total", 0.0) for i, t in zip(ok, timings)]
    queue = [t.get("queue_wait", 0.0) for t in timings]
    execute = [t.get("execute", 0.0) for t in timings]
    for name, values, pcts in (("serve.ipc_ms", ipc, (50, 99)),
                               ("serve.queue_wait_ms", queue, (50, 99)),
                               ("serve.execute_ms", execute, (50,))):
        for pct in pcts:
            if values:
                report.extra[f"{name}_p{pct}"] = (
                    percentile(values, pct) * 1e3, "ms",
                    f"of {len(values)} OK requests")
    report.extra["serve.loadgen_late_ms_max"] = (
        max(res.late_s) * 1e3, "ms", "send after its scheduled time")
    report.extra["serve.poll_ms_p50"] = (
        statistics.median(res.poll_periods) * 1e3, "ms",
        f"completion stamp period (target {POLL_S * 1e3:g} ms), "
        f"max {max(res.poll_periods) * 1e3:.2f} ms")


# ---------------------------------------------------------------------------
# stream_rw
# ---------------------------------------------------------------------------

LEFT_SHAPE, LEFT_NNZ = (8192, 64), 60_000
RIGHT_SHAPE, RIGHT_NNZ = (64, 256), 8_000
PARTNER_SHAPE, PARTNER_NNZ = (64, 128), 4_000
TILE = 64
N_BLOCKS = LEFT_SHAPE[0] // TILE
#: One shuffled cycle of ops: 85% small deltas, 5% wide, 10% reads.
CYCLE = ("small",) * 17 + ("wide",) + ("read",) * 2


def _small_delta(rng) -> DeltaBatch:
    """Six ops inside one tile-row block: the incremental path."""
    rows = int(rng.integers(N_BLOCKS)) * TILE + rng.integers(0, TILE, 6)
    cols = rng.integers(0, LEFT_SHAPE[1], 6)
    kinds = [INSERT] * 4 + [UPDATE, DELETE]
    return DeltaBatch(kinds, np.vstack([rows, cols]), rng.uniform(size=6),
                      LEFT_SHAPE)


def _wide_delta(rng) -> DeltaBatch:
    """One insert in each of 60 of the 128 blocks: the full recompute."""
    blocks = rng.choice(N_BLOCKS, 60, replace=False)
    rows = blocks * TILE + rng.integers(0, TILE, 60)
    cols = rng.integers(0, LEFT_SHAPE[1], 60)
    return DeltaBatch.inserts(np.vstack([rows, cols]), rng.uniform(size=60),
                              LEFT_SHAPE)


def _stream_inputs(seed: int):
    """The stream's operands, the read partner, and the op generator."""
    rng = np.random.default_rng(seed)
    tensors = [random_coo(shape, nnz, seed=int(rng.integers(2**31)))
               for shape, nnz in ((LEFT_SHAPE, LEFT_NNZ),
                                  (RIGHT_SHAPE, RIGHT_NNZ),
                                  (PARTNER_SHAPE, PARTNER_NNZ))]
    return rng, *tensors


def run_stream(seed: int, seconds: float, trace: bool) -> tuple[Report, Spans | None]:
    report = Report("stream_rw", seed, seconds, trace)
    rng, left, right, partner = _stream_inputs(seed)
    pairs = [(1, 0)]
    plan = choose_plan(ContractionSpec(left.shape, right.shape, pairs),
                       left.nnz, right.nnz, DESKTOP, tile_size=TILE)
    host = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        runtime = ContractionRuntime(machine=DESKTOP)
        engine = IncrementalEngine(DESKTOP, runtime=runtime)
        _timed_setup(host, setups,
                     lambda: engine.register("s", left, right, pairs, plan=plan))

    spans = Spans() if trace else None
    before = runtime.counters.snapshot()
    engine_before = engine.counters.snapshot()
    mirror = left
    classes = {"small": [], "wide": [], "read": []}
    samples, stream_stats = [], []
    busy = 0.0
    bad_reads = 0
    deadline = _deadline(seconds)
    while (busy < seconds or not samples) and time.perf_counter() < deadline:
        for kind in rng.permutation(CYCLE):
            report.attempted += 1
            delta = None if kind == "read" else (
                _small_delta(rng) if kind == "small" else _wide_delta(rng))
            host.maybe_probe()
            t0 = time.perf_counter()
            try:
                if delta is None:
                    out, record = runtime.contract(mirror, partner, pairs,
                                                   return_record=True)
                else:
                    stats = engine.apply_delta("s", delta)
            except ReproError:
                report.failed += 1
                continue
            dt = time.perf_counter() - t0
            busy += dt
            samples.append((t0, dt))
            classes[kind].append((t0, dt))
            if trace:
                op = spans.add("stream.op", t0, t0 + dt, op=report.attempted)
                if delta is None:
                    call = spans.add("runtime.contract", t0, t0 + dt,
                                     parent=op, op=report.attempted)
                    _record_phases(spans, call, record)
                else:
                    spans.add("streaming.delta", t0, t0 + dt, parent=op,
                              op=report.attempted)
            if delta is None:
                # Byte equality first: allclose on a 1M-nonzero output
                # costs several reads' worth of time.
                ref = contract(mirror, partner, pairs)
                if digest(out) != digest(ref) and not out.allclose(ref, rtol=1e-9):
                    report.failed += 1
                    bad_reads += 1
            else:
                stream_stats.append(stats)
                mirror = delta.apply(mirror)
    final_ok = digest(engine.result("s")) == digest(
        contract(mirror, right, pairs, plan=plan))
    report.checks.append(Check(
        "final stream output bit-identical to contract(mirror, right, "
        "plan=pinned)", final_ok, f"after {len(stream_stats)} deltas"))
    report.checks.append(Check(
        "every read allclose (rtol 1e-9) to contract()", bad_reads == 0,
        f"{len(classes['read'])} reads, {bad_reads} mismatched"))

    _setup_metric(report, host, setups, "IncrementalEngine.register")
    _finish(report, host, samples, classes, op="ops", rss_mb=peak_rss_mb())
    by_mode = {"incremental": [], "full": []}
    for st in stream_stats:
        by_mode.setdefault(st.mode, []).append(st.seconds)
    for mode, values in by_mode.items():
        if values:
            report.extra[f"streaming.{mode}_ms_p50"] = (
                statistics.median(values) * 1e3, "ms", f"of {len(values)}")
    reads = [dt for _, dt in classes["read"]]
    if reads:
        report.extra["streaming.read_ms_p50"] = (
            statistics.median(reads) * 1e3, "ms", f"of {len(reads)}")
    if trace:
        counts, rates = _counter_rates(before, runtime.counters.snapshot(),
                                       len(samples))
        engine_counts = engine.counters.snapshot()
        for k in COUNT_FIELDS:
            if k == "workspace_cells":
                counts[k] = max(counts[k], engine_counts[k])
            else:
                counts[k] += (engine_counts[k] - engine_before[k]) / len(samples)
        n_deltas = max(1, len(stream_stats))
        rates["streaming.full_frac"] = (
            len(by_mode["full"]) / n_deltas, "fraction",
            f"{len(by_mode['full'])} of {len(stream_stats)} deltas")
        rates["streaming.tiles_touched_frac"] = (
            sum(st.tiles_touched / st.tiles_total for st in stream_stats)
            / n_deltas, "fraction", "mean over deltas")
        _layers(report, spans, "stream.op", counts, rates)
    return report, spans


WORKLOADS = {
    "paper16_cold": run_paper16,
    "dlpno_warm": run_dlpno,
    "serve_sharded": run_serve,
    "stream_rw": run_stream,
}
