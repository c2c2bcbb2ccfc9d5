"""Shared pieces of the end-to-end benchmark.

Everything here is workload-agnostic: locating the checkout's sources,
content digests for output checks, the latency statistics every
workload reports, the span recorder behind ``--trace``, and the
per-layer roll-up of recorded spans.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: A reported tail percentile has at least this many samples beyond it.
MIN_BEYOND = 10


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def digest(tensor) -> bytes:
    """Byte identity of a COO tensor: shape, coordinates and values."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((tuple(tensor.shape), tensor.coords.dtype.str,
                   tensor.values.dtype.str)).encode())
    h.update(np.ascontiguousarray(tensor.coords).tobytes())
    h.update(np.ascontiguousarray(tensor.values).tobytes())
    return h.digest()


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, pct: float) -> float:
    return float(np.percentile(values, pct))


def tail_percentile(n: int) -> float:
    """The highest percentile with at least :data:`MIN_BEYOND` of ``n``
    samples beyond it: p75 of 40, p95 of 200, p98.75 of 800.

    It moves smoothly with ``n``, so a closed loop that completes a few
    ops more or fewer reports nearly the same order statistic.  Below
    ``2 * MIN_BEYOND`` samples no tail lies above the median, which is
    returned instead.
    """
    return max(50.0, 100.0 * (1.0 - MIN_BEYOND / n))


def samples_beyond(n: int, pct: float) -> int:
    # The epsilon keeps 100 * (1 - 0.9) from rounding down to 9.
    return int(math.floor(n * (1.0 - pct / 100.0) + 1e-9))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class HostSpeed:
    """How fast the host runs right now, read off a fixed reference job.

    The benchmark shares its host with other tenants, and their load
    makes the same work take 30-40% longer from one minute to the next,
    in CPU time as much as in wall time.  A small fixed job of NumPy
    sorting and interpreter work, which calls nothing in ``repro``, is
    timed between ops (never inside one, and with the collector off so
    garbage an op left behind is not charged to it).  An op's time
    times ``REF_S`` over the job's median time among the nearest
    ``WINDOW`` probes is its time at reference host speed: what the op
    would have taken with the job running in ``REF_S``.

    The open loop (``open_loop``) differs in two ways.  Its shards run
    on every CPU, and each CPU slows on its own, so it probes each CPU
    in turn.  And its requests take about 10 ms, so a 10-40 ms vCPU
    preemption by the host lands on them whole.  The mean of the probes
    counts those stalls and the median leaves them out: over ten seeds
    of ``serve_sharded`` the mean cut the spread of the median latency
    from 0.21 to 0.10, while on ``paper16_cold`` calls the median
    tracked better (0.041 against 0.060 over 10 s windows).

    A change that leaves work running between ops (a busy thread, a
    child process) slows the job too and hides part of its own cost;
    each report therefore also prints the raw timings.
    """

    #: About the median time of one probe on the baseline host.  Never
    #: change it: every recorded timing is relative to it.
    REF_S = 0.003
    #: Probes taken at most this often by :meth:`maybe_probe`.
    PERIOD_S = 0.2
    WINDOW = 7

    def __init__(self, *, open_loop: bool = False):
        rng = np.random.default_rng(20261016)
        self._keys = rng.integers(0, 1 << 40, 20_000)
        self._vals = rng.random(20_000)
        self._every_cpu = open_loop and hasattr(os, "sched_setaffinity")
        self._average = statistics.mean if open_loop else statistics.median
        self.at: list[float] = []
        self.seconds: list[float] = []

    def probe(self, n: int = 1) -> None:
        """Time the job ``n`` times (on each CPU in the open loop)."""
        if not self._every_cpu:
            self._time_job(n)
            return
        cpus = os.sched_getaffinity(0)
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                self._time_job(n)
        finally:
            os.sched_setaffinity(0, cpus)

    def _time_job(self, n: int) -> None:
        for _ in range(n):
            gc.disable()
            try:
                t0 = time.perf_counter()
                order = np.argsort(self._keys, kind="stable")
                np.cumsum(self._vals[order])
                np.unique(self._keys[:8_000])
                acc = 0
                for k in range(8_000):
                    acc += k & 7
                dt = time.perf_counter() - t0
            finally:
                gc.enable()
            self.at.append(t0)
            self.seconds.append(dt)

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= self.PERIOD_S:
            self.probe()

    def scale(self, t: float) -> float:
        """``REF_S`` over the median (open loop: mean) of the ``WINDOW``
        probes nearest time ``t``."""
        k = bisect.bisect_left(self.at, t)
        lo = max(0, min(k - self.WINDOW // 2, len(self.at) - self.WINDOW))
        return self.REF_S / self._average(self.seconds[lo:lo + self.WINDOW])


def peak_rss_mb(*, children: bool = False) -> float:
    """``ru_maxrss`` in MiB; with ``children`` the larger of this
    process and its largest reaped child."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Spans:
    """In-memory span log: name, start, end, parent, op id.

    Times are ``time.perf_counter`` seconds.  Spans recorded from the
    benchmark's own wrappers are exact; children derived from a
    library record (``RunRecord.phase_seconds``, ``Response.timings``)
    have exact durations but positions packed by :meth:`add_sequence`.
    """

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def add(self, name: str, start: float, end: float, *,
            parent: int = -1, op: int = -1) -> int:
        self.name.append(name)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.name) - 1

    def add_sequence(self, parent: int, parts, *,
                     end: float | None = None) -> None:
        """Lay ``(name, seconds)`` parts back to back under ``parent``,
        from the parent's start, or ending at ``end`` when given."""
        parts = [(n, d) for n, d in parts if d > 0]
        t = self.start[parent] if end is None else end - sum(d for _, d in parts)
        for name, dur in parts:
            self.add(name, t, t + dur, parent=parent, op=self.op[parent])
            t += dur

    def _covered(self) -> list[float]:
        """Per span, how much of its interval its children cover."""
        children: dict[int, list[int]] = {}
        for k, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(k)
        return [
            _union_length([(max(s, self.start[c]), min(e, self.end[c]))
                           for c in children.get(k, ())])
            for k, (s, e) in enumerate(zip(self.start, self.end))
        ]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus
        the part of its interval that its children cover."""
        totals: dict[str, float] = {}
        for k, covered in enumerate(self._covered()):
            own = max(0.0, self.end[k] - self.start[k] - covered)
            totals[self.name[k]] = totals.get(self.name[k], 0.0) + own
        return totals

    def coverage(self, name: str) -> list[float]:
        """For each span called ``name``, the share of its interval its
        children cover."""
        return [
            covered / (self.end[k] - self.start[k])
            if self.end[k] > self.start[k] else 1.0
            for k, covered in enumerate(self._covered())
            if self.name[k] == name
        ]

    def chrome_trace(self, *, lane_per_op: bool = False) -> dict:
        """Chrome trace-event JSON (load it in Perfetto or chrome://tracing).

        Closed-loop ops never overlap, so they share one lane; open-loop
        requests do, so ``lane_per_op`` gives each its own.
        """
        t0 = min(self.start) if self.start else 0.0
        events = []
        for k, name in enumerate(self.name):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (self.start[k] - t0) * 1e6,
                "dur": (self.end[k] - self.start[k]) * 1e6,
                "pid": 1,
                "tid": self.op[k] if lane_per_op else 0,
                "args": {"op": self.op[k], "parent": self.parent[k]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _union_length(intervals) -> float:
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(i for i in intervals if i[1] > i[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_breakdown(spans: Spans, op_span: str, layer_of: dict) -> dict:
    """Self time per layer, per op and as a share of total op time.

    Op spans (named ``op_span``) are the roots.  A span's self time
    counts toward ``layer_of[name]``, or toward its own name when it is
    not in ``layer_of``.  Shares over all layers sum to one.
    """
    self_t = spans.self_times()
    ops = [k for k, n in enumerate(spans.name) if n == op_span]
    total = sum(spans.end[k] - spans.start[k] for k in ops)
    n_ops = max(1, len(ops))
    out = {}
    for name, secs in self_t.items():
        layer = layer_of.get(name, name)
        row = out.setdefault(layer, {"ms_per_op": 0.0, "share": 0.0})
        row["ms_per_op"] += secs * 1e3 / n_ops
        row["share"] += secs / total if total else 0.0
    return out


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    #: metric name -> (value, unit, note); the e2e and per-layer values
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    #: printed and stored, but not part of the result line
    extra: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c.ok for c in self.checks)

    def result_line(self, manifest: dict) -> str:
        """The one-line JSON result; metric set and units from the manifest."""
        key = "per_layer" if self.trace else "end_to_end"
        source = self.layers if self.trace else self.e2e
        metrics = {}
        for spec in manifest[key]:
            value = source[spec["name"]][0]
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": metrics,
        })

    def to_json(self) -> dict:
        def table(d):
            return {k: {"value": v[0], "unit": v[1], "note": v[2]}
                    for k, v in d.items()}

        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "e2e": table(self.e2e),
            "layers": table(self.layers),
            "extra": table(self.extra),
            "checks": [[c.name, c.ok, c.detail] for c in self.checks],
        }

    def render(self) -> str:
        lines = [
            f"workload {self.workload}  seed {self.seed}  "
            f"seconds {self.seconds:g}  trace {int(self.trace)}"
        ]
        for title, table in (("end to end", self.e2e),
                             ("per layer", self.layers if self.trace else {}),
                             ("detail", self.extra)):
            if not table:
                continue
            lines.append(f"  -- {title}")
            for name, (value, unit, note) in table.items():
                lines.append(f"  {name:<32} {_fmt(value):>12} {unit:<8} {note}")
        failed_frac = self.failed / self.attempted if self.attempted else 0.0
        lines.append(
            f"  {'failed_frac':<32} {_fmt(failed_frac):>12} {'fraction':<8} "
            f"{self.failed} of {self.attempted} ops"
        )
        for c in self.checks:
            lines.append(f"  check {'PASS' if c.ok else 'FAIL'}  {c.name}"
                         + (f"  ({c.detail})" if c.detail else ""))
        lines.append(f"VERIFY {'PASS' if self.correct else 'FAIL'} "
                     f"{self.workload}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.4f}"
    return f"{value:.4e}"


def latency_metrics(report: Report, samples_s, classes: dict, *,
                    op: str) -> None:
    """Fill the latency e2e metrics from per-op seconds.

    ``classes`` maps op class -> its samples' seconds; ``geomean_ms`` is
    the geometric mean of the class medians, so a class of small ops
    weighs as much as one of large ops.
    """
    n = len(samples_s)
    tail_pct = tail_percentile(n)
    beyond = samples_beyond(n, tail_pct)
    report.e2e["latency_p50_ms"] = (
        percentile(samples_s, 50) * 1e3, "ms", f"p50 of {n} {op}")
    note = f"p{tail_pct:.4g} of {n} {op}, {beyond} beyond"
    if beyond < MIN_BEYOND:
        note += f" (WARNING: fewer than {MIN_BEYOND} beyond)"
    report.e2e["latency_tail_ms"] = (
        percentile(samples_s, tail_pct) * 1e3, "ms", note)
    medians = {k: statistics.median(v) for k, v in classes.items() if v}
    report.e2e["geomean_ms"] = (
        geomean(medians.values()) * 1e3, "ms",
        f"geomean of {len(medians)} class medians")


def write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    os.replace(tmp, path)


def machine_info() -> dict:
    import platform

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
