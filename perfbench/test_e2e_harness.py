"""Tests of the benchmark harness itself.

Run from the repository root:  ``python3 -m pytest perfbench -q``
(the last three tests run the benchmark end to end and take about a
minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from compare import compare_runs, verdict  # noqa: E402
from harness import Spans, layer_breakdown, tail_percentile  # noqa: E402

# ---------------------------------------------------------------------------
# tail-percentile rule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [
    (1, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (200, 95.0),
    (400, 97.5), (800, 98.75), (1600, 99.375),
])
def test_tail_percentile_is_the_highest_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pytest.approx(pct)
    if n >= 20:
        assert harness.samples_beyond(n, tail_percentile(n)) == 10
        assert harness.samples_beyond(n, tail_percentile(n) + 0.01) < 10


def test_latency_metrics_reports_the_rule_percentile():
    report = harness.Report("w", 1, 1.0, False)
    samples = [float(k) for k in range(1, 201)]
    harness.latency_metrics(report, samples, {"all": samples}, op="ops")
    value, unit, note = report.e2e["latency_tail_ms"]
    assert unit == "ms" and note.startswith("p95 of 200 ops, 10 beyond")
    assert value == pytest.approx(np.percentile(samples, 95) * 1e3)
    assert sum(s * 1e3 > value for s in samples) == 10


# ---------------------------------------------------------------------------
# span self-time arithmetic
# ---------------------------------------------------------------------------


def test_self_time_subtracts_covered_children():
    s = Spans()
    op = s.add("op", 0.0, 10.0, op=1)
    a = s.add("a", 1.0, 4.0, parent=op, op=1)
    s.add("b", 3.0, 6.0, parent=op, op=1)       # overlaps a: union 1..6
    s.add("c", 2.0, 3.0, parent=a, op=1)        # grandchild
    s.add("d", 9.0, 12.0, parent=op, op=1)      # clipped to the op's end
    t = s.self_times()
    assert t["op"] == pytest.approx(10 - 5 - 1)
    assert t["a"] == pytest.approx(3 - 1)
    assert t["b"] == pytest.approx(3)
    assert t["c"] == pytest.approx(1)
    assert s.coverage("op") == [pytest.approx(0.6)]


def test_add_sequence_packs_from_start_or_end():
    s = Spans()
    op = s.add("op", 10.0, 20.0)
    s.add_sequence(op, [("x", 1.0), ("skip", 0.0), ("y", 2.0)])
    s.add_sequence(op, [("z", 4.0)], end=20.0)
    got = {n: (a, b) for n, a, b in zip(s.name, s.start, s.end)}
    assert got["x"] == (10.0, 11.0) and got["y"] == (11.0, 13.0)
    assert got["z"] == (16.0, 20.0) and "skip" not in got
    assert s.self_times()["op"] == pytest.approx(3.0)


def test_layer_shares_sum_to_one_and_map_self_time():
    s = Spans()
    for k in range(3):
        op = s.add("req", 10.0 * k, 10.0 * k + 4.0, op=k)
        call = s.add("call", 10.0 * k, 10.0 * k + 3.0, parent=op, op=k)
        s.add_sequence(call, [("kernel", 2.0)])
    rows = layer_breakdown(s, "req", {"req": "client", "call": "overhead"})
    assert sum(r["share"] for r in rows.values()) == pytest.approx(1.0)
    assert rows["kernel"]["share"] == pytest.approx(0.5)
    assert rows["client"]["ms_per_op"] == pytest.approx(1000.0)
    assert rows["overhead"]["ms_per_op"] == pytest.approx(1000.0)


def test_chrome_trace_events():
    s = Spans()
    op = s.add("op", 1.0, 1.5, op=7)
    s.add("core.kernel", 1.1, 1.2, parent=op, op=7)
    doc = json.loads(json.dumps(s.chrome_trace(lane_per_op=True)))
    ev = doc["traceEvents"]
    assert [e["ph"] for e in ev] == ["X", "X"]
    assert ev[0]["ts"] == 0 and ev[0]["dur"] == pytest.approx(5e5)
    assert ev[1]["cat"] == "core" and ev[1]["tid"] == 7


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------


def test_host_speed_scales_by_the_nearest_probes():
    host = harness.HostSpeed()
    ref = host.REF_S
    # Probes at t = 0..19 s; the host runs at half speed from t = 10.
    host.at = [float(t) for t in range(20)]
    host.seconds = [ref if t < 10 else 2 * ref for t in range(20)]
    assert host.scale(2.5) == pytest.approx(1.0)
    assert host.scale(16.0) == pytest.approx(0.5)
    # Before the first and after the last probe the window is clamped.
    assert host.scale(-5.0) == pytest.approx(1.0)
    assert host.scale(99.0) == pytest.approx(0.5)
    # A median: one slow probe in the window does not move it.
    host.seconds[17] = 10 * ref
    assert host.scale(16.0) == pytest.approx(0.5)
    # The open loop averages, so a stalled probe counts.
    open_loop = harness.HostSpeed(open_loop=True)
    open_loop.at, open_loop.seconds = host.at, host.seconds
    assert open_loop.scale(16.0) == pytest.approx(7 / (6 * 2 + 10))


def test_host_probe_is_timed_and_spaced():
    host = harness.HostSpeed()
    host.probe(2)
    host.maybe_probe()          # too soon after the last: skipped
    assert len(host.seconds) == 2 and all(s > 0 for s in host.seconds)
    assert host.at == sorted(host.at)


# ---------------------------------------------------------------------------
# compare verdicts
# ---------------------------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_verdict_within_bound():
    v = verdict(BASE, [x * 1.03 for x in BASE], better="lower", bound=0.1)
    assert v["tag"] == "ok" and v["change"] == pytest.approx(0.03)


def test_verdict_regression_beyond_bound():
    v = verdict(BASE, [x * 1.2 for x in BASE], better="lower", bound=0.1)
    assert v["tag"] == "regression"
    # Higher-is-better metrics regress downward.
    v = verdict(BASE, [x * 0.8 for x in BASE], better="higher", bound=0.1)
    assert v["tag"] == "regression"


def test_verdict_floor_absorbs_small_absolute_change():
    base = [0.1] * 5
    v = verdict(base, [0.14] * 5, better="lower", bound=0.25, floor=0.05)
    assert v["tag"] == "ok"


def test_verdict_gain_needs_nine_of_ten_and_iqr():
    new = [x * 0.95 for x in BASE]
    assert verdict(BASE, new, better="lower", bound=0.1)["tag"] == "gain"
    # Two lost pairs out of ten: no claim.
    lost = new[:8] + [BASE[8] * 1.01, BASE[9] * 1.01]
    assert verdict(BASE, lost, better="lower", bound=0.1)["tag"] == "ok"
    # Medians closer than the base IQR: no claim.
    tiny = [x - 0.05 for x in BASE]
    assert verdict(BASE, tiny, better="lower", bound=0.1)["tag"] == "ok"
    # Three of three pairs won: fewer than ten pairs, no claim.
    assert verdict(BASE[:3], new[:3], better="lower", bound=0.1)["tag"] == "ok"
    # More ops failed than at the base: no claim.
    v = verdict(BASE, new, better="lower", bound=0.1, more_failures=True)
    assert v["tag"] == "ok"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    v = verdict(noisy, noisy, better="lower", bound=0.1)
    assert v["tag"] == "unresolved"
    # ...unless every new run beats every base run.
    v = verdict(noisy, [x / 10 for x in noisy], better="lower", bound=0.1)
    assert v["tag"] == "gain"


def test_compare_runs_pairs_by_seed_per_workload():
    manifest = {
        "workloads": [{"name": "w"}, {"name": "absent"}],
        "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}],
    }

    def run(seed, value, failed=0):
        return {"workload": "w", "seed": seed, "trace": 0, "attempted": 100,
                "failed": failed, "e2e": {"m": {"value": value}}}

    base = [run(s, 100.0 + s) for s in range(10)]
    new = [run(s, 90.0 + s) for s in reversed(range(10))]
    result = compare_runs(base, new, manifest)
    assert list(result) == ["w"]
    assert result["w"]["m"]["wins"] == 10
    assert result["w"]["m"]["tag"] == "gain"
    assert result["w"]["failed_frac"]["tag"] == "ok"
    # One failed op in the new set: a failure regression and no gain.
    new[0] = run(9, 99.0, failed=1)
    result = compare_runs(base, new, manifest)
    assert result["w"]["failed_frac"]["tag"] == "regression"
    assert result["w"]["failed_frac"]["new"] == pytest.approx(0.001)
    assert result["w"]["m"]["tag"] == "ok"


# ---------------------------------------------------------------------------
# seed determinism of the generated inputs
# ---------------------------------------------------------------------------


def _input_digests(seed: int) -> list[bytes]:
    from harness import digest
    from repro.data.registry import all_cases
    from workloads import _serve_inputs, _stream_inputs, case_inputs

    out = []
    for case in all_cases().values():
        left, right, _ = case_inputs(case, seed)
        out += [digest(left), digest(right)]
    _, _, hot, net_ops = _serve_inputs(seed)
    out += [digest(t) for pair in hot for t in pair]
    out += [digest(t) for t in net_ops]
    _, *stream = _stream_inputs(seed)
    out += [digest(t) for t in stream]
    return out


def test_same_seed_same_inputs_other_seed_other_inputs():
    a, b, c = _input_digests(3), _input_digests(3), _input_digests(4)
    assert a == b
    assert all(x != y for x, y in zip(a, c))


def test_default_seed_reproduces_the_registry():
    from harness import digest
    from repro.data.registry import all_cases
    from workloads import DEFAULT_SEED, case_inputs

    for case in all_cases().values():
        ours = case_inputs(case, DEFAULT_SEED)
        theirs = case.load()
        assert [digest(t) for t in ours[:2]] == [digest(t) for t in theirs[:2]]
        assert list(ours[2]) == list(theirs[2])


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------


def test_every_workload_runs_and_reports_the_manifest_metrics():
    manifest = harness.load_manifest()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = [m["name"] for m in manifest[key]]
        for w in [x["name"] for x in manifest["workloads"]]:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["attempted"] >= 1
            assert list(line["metrics"]) == want


def test_suite_records_runs_that_compare_cleanly(tmp_path):
    manifest = harness.load_manifest()
    record = str(tmp_path / "runs.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--all", "--seed", "5",
         "--seconds", "1", "--record", record, "--label", "A"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr
    assert "VERIFY PASS: 4 runs" in proc.stdout
    with open(record, encoding="utf-8") as fh:
        runset = json.load(fh)
    assert runset["machine"]["nproc"] == os.cpu_count()
    assert [r["workload"] for r in runset["runs"]] == [
        w["name"] for w in manifest["workloads"]]
    for run in runset["runs"]:
        assert run["correct"] and run["label"] == "A"
        assert set(run["e2e"]) == {m["name"] for m in manifest["end_to_end"]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--compare", f"{record}:A",
         f"{record}:A"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for w in manifest["workloads"]:
        assert w["name"] in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper16_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
