"""Service-level metrics: latency histograms, status counts, SLO views.

The metrics layer is deliberately *lossy but bounded*: per-stage
latencies land in log-spaced histograms (fixed memory regardless of
traffic), statuses and sheds are plain counters, and the kernel-level
data-access tallies ride on the standard
:class:`~repro.analysis.counters.Counters` so one JSON export carries
the whole stack — queue behavior, stage latencies, plan/table cache hit
rates, and the paper's access counts — for dashboards or the
``python -m repro serve`` CLI.

Quantiles (p50/p95/p99) are read from the histogram as the upper edge
of the bucket containing the target rank: an overestimate by at most
one bucket width (``factor`` = 2 by default), which is the standard
monitoring trade-off.
"""

from __future__ import annotations

import threading

from repro.analysis.counters import Counters, merge_snapshots
from repro.errors import ConfigError
from repro.serve.request import TERMINAL_STATUSES, Response

__all__ = [
    "LatencyHistogram",
    "ServiceMetrics",
    "STAGES",
    "merge_histogram_json",
    "merge_metrics_json",
]

#: Pipeline stages every request is timed across.
STAGES = ("queue_wait", "execute", "total")


class LatencyHistogram:
    """Log-spaced latency histogram with quantile estimates.

    Buckets are ``[0, base)``, ``[base, base*factor)``, … — 44 buckets
    at the defaults span 1 µs to ~2.4 h, which covers every latency a
    serving stack can produce while staying a few hundred bytes.
    """

    def __init__(
        self, base: float = 1e-6, factor: float = 2.0, n_buckets: int = 44
    ):
        if base <= 0 or factor <= 1 or n_buckets < 2:
            raise ConfigError(
                f"invalid histogram spec: base={base}, factor={factor}, "
                f"n_buckets={n_buckets}"
            )
        self.base = float(base)
        self.factor = float(factor)
        #: Upper edge of each bucket; the last bucket is unbounded.
        self.edges = [base * factor**k for k in range(n_buckets - 1)]
        self.counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Tally one observation (negative clock skew clamps to 0)."""
        seconds = max(0.0, float(seconds))
        k = 0
        while k < len(self.edges) and seconds >= self.edges[k]:
            k += 1
        with self._lock:
            self.counts[k] += 1
            self.count += 1
            self.total += seconds
            if seconds > self.max_seen:
                self.max_seen = seconds

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank."""
        if not 0 <= q <= 1:
            raise ConfigError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            seen = 0
            for k, c in enumerate(self.counts):
                seen += c
                if seen >= rank and c:
                    if k >= len(self.edges):
                        return self.max_seen
                    return min(self.edges[k], self.max_seen)
            return self.max_seen

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Accumulate another histogram (bucket layouts must match)."""
        if other.edges != self.edges:
            raise ConfigError("cannot merge histograms with different buckets")
        with self._lock:
            for k, c in enumerate(other.counts):
                self.counts[k] += c
            self.count += other.count
            self.total += other.total
            self.max_seen = max(self.max_seen, other.max_seen)
        return self

    def to_json(self) -> dict:
        """JSON-friendly summary plus the nonzero buckets."""
        with self._lock:
            count, total, max_seen = self.count, self.total, self.max_seen
            buckets = [
                [self.edges[k] if k < len(self.edges) else None, c]
                for k, c in enumerate(self.counts)
                if c
            ]
        return {
            "count": count,
            "total_seconds": total,
            "mean_seconds": total / count if count else 0.0,
            "max_seconds": max_seen,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets_le": buckets,
        }


class ServiceMetrics:
    """Aggregate service observability: stages, statuses, kernel counts.

    ``observe`` is called once per terminal response; the queue and
    cache numbers are pulled in at export time by
    :meth:`ContractionService.metrics_json`, so this object stays a
    passive tally.
    """

    def __init__(self):
        self.stages = {name: LatencyHistogram() for name in STAGES}
        self.statuses = dict.fromkeys(TERMINAL_STATUSES, 0)
        self.submitted = 0
        self.completed = 0
        self.degrade_rungs: dict[str, int] = {}
        self.kernel = Counters()
        self._lock = threading.Lock()

    def note_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def observe(self, response: Response) -> None:
        """Tally one terminal response and its stage timings."""
        with self._lock:
            self.completed += 1
            self.statuses[response.status] = (
                self.statuses.get(response.status, 0) + 1
            )
            if response.degrade_rung:
                self.degrade_rungs[response.degrade_rung] = (
                    self.degrade_rungs.get(response.degrade_rung, 0) + 1
                )
        for stage, hist in self.stages.items():
            if stage in response.timings:
                hist.record(response.timings[stage])

    def rate(self, status: str) -> float:
        """Fraction of completed requests with the given status."""
        with self._lock:
            return (
                self.statuses.get(status, 0) / self.completed
                if self.completed
                else 0.0
            )

    def to_json(self) -> dict:
        with self._lock:
            statuses = dict(self.statuses)
            payload = {
                "submitted": self.submitted,
                "completed": self.completed,
                "statuses": statuses,
                "degrade_rungs": dict(self.degrade_rungs),
            }
        payload["latency"] = {
            stage: hist.to_json() for stage, hist in self.stages.items()
        }
        payload["kernel_counters"] = self.kernel.snapshot()
        return payload

    def render(self) -> str:
        """Human-readable multi-line summary for the CLI."""
        with self._lock:
            statuses = dict(self.statuses)
            completed = self.completed
            submitted = self.submitted
            rungs = dict(self.degrade_rungs)
        lines = [f"requests: {submitted} submitted, {completed} completed"]
        status_bits = ", ".join(
            f"{name}={n}" for name, n in statuses.items() if n
        )
        lines.append(f"  statuses: {status_bits or '(none)'}")
        if rungs:
            lines.append(
                "  degrade rungs: "
                + ", ".join(f"{name}={n}" for name, n in rungs.items())
            )
        for stage, hist in self.stages.items():
            if hist.count:
                lines.append(
                    f"  {stage:<10} p50={hist.p50 * 1e3:8.2f}ms  "
                    f"p95={hist.p95 * 1e3:8.2f}ms  "
                    f"p99={hist.p99 * 1e3:8.2f}ms  "
                    f"mean={hist.mean * 1e3:8.2f}ms  (n={hist.count})"
                )
        return "\n".join(lines)


# -- cross-process snapshot merging -------------------------------------
#
# Shard worker processes export `ContractionService.metrics_json()`
# documents over IPC; the router folds them into one aggregate view.
# The merge works on the plain JSON dicts (no live objects cross the
# process boundary) and every rule is associative — sums, key-wise
# sums, maxima — with derived fields (rates, quantiles, means)
# recomputed from the merged primaries, so the fold order in which
# shards happen to reply cannot change the aggregate.

#: Snapshot keys that merge by maximum (peaks), not by sum.
_MAX_KEYS = frozenset({"high_water", "max_seconds", "workspace_cells"})

#: Snapshot keys recomputed from merged primaries (never summed).
_DERIVED_KEYS = frozenset({
    "mean_seconds", "p50", "p95", "p99",
    "plan_hit_rate", "table_reuse_rate", "estimated_speedup",
    "network_plan_hit_rate",
    "pairwise_plan_hit_rate", "pairwise_table_reuse_rate",
    "pairwise_estimated_speedup",
    "mean_modeled_fraction",
})


def merge_histogram_json(a: dict, b: dict) -> dict:
    """Merge two :meth:`LatencyHistogram.to_json` documents.

    Buckets are keyed by their upper edge (``None`` = the unbounded
    overflow bucket); counts sum, the peak takes the max, and the
    quantiles are re-read from the merged buckets with the same
    upper-edge rule the live histogram uses.
    """
    buckets: dict = {}
    for doc in (a, b):
        for edge, count in doc.get("buckets_le", []):
            buckets[edge] = buckets.get(edge, 0) + count
    count = a.get("count", 0) + b.get("count", 0)
    total = a.get("total_seconds", 0.0) + b.get("total_seconds", 0.0)
    max_seen = max(a.get("max_seconds", 0.0), b.get("max_seconds", 0.0))
    ordered = sorted(
        buckets.items(), key=lambda kv: (kv[0] is None, kv[0])
    )

    def quantile(q: float) -> float:
        if count == 0:
            return 0.0
        rank = q * count
        seen = 0
        for edge, c in ordered:
            seen += c
            if seen >= rank and c:
                if edge is None:
                    return max_seen
                return min(edge, max_seen)
        return max_seen

    return {
        "count": count,
        "total_seconds": total,
        "mean_seconds": total / count if count else 0.0,
        "max_seconds": max_seen,
        "p50": quantile(0.50),
        "p95": quantile(0.95),
        "p99": quantile(0.99),
        "buckets_le": [[edge, c] for edge, c in ordered],
    }


def _merge_numeric_section(a: dict, b: dict) -> dict:
    """Key-wise merge of a flat metrics dict: sums, peaks, recomputed
    rates, and ``'mixed'`` markers for disagreeing labels."""
    out: dict = {}
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            out[key] = va if vb is None else vb
        elif key in _DERIVED_KEYS:
            continue
        elif isinstance(va, bool) or isinstance(vb, bool):
            out[key] = va and vb
        elif isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            out[key] = max(va, vb) if key in _MAX_KEYS else va + vb
        else:
            out[key] = va if va == vb else "mixed"
    _recompute_derived(out)
    return out


def _recompute_derived(d: dict) -> None:
    """Rebuild rate/speedup fields from their merged inputs, in place."""

    def ratio(hits, misses):
        total = hits + misses
        return hits / total if total else 0.0

    for prefix in ("", "pairwise_"):
        if f"{prefix}plan_cache_hits" in d:
            d[f"{prefix}plan_hit_rate"] = ratio(
                d[f"{prefix}plan_cache_hits"],
                d.get(f"{prefix}plan_cache_misses", 0),
            )
        if f"{prefix}table_reuse_hits" in d:
            d[f"{prefix}table_reuse_rate"] = ratio(
                d[f"{prefix}table_reuse_hits"],
                d.get(f"{prefix}table_builds", 0),
            )
        if f"{prefix}measured_seconds" in d:
            measured = d[f"{prefix}measured_seconds"]
            saved = d.get(f"{prefix}seconds_saved", 0.0)
            d[f"{prefix}estimated_speedup"] = (
                (measured + saved) / measured if measured > 0 else 1.0
            )
    if "network_plan_hits" in d:
        d["network_plan_hit_rate"] = ratio(
            d["network_plan_hits"], d.get("network_plan_misses", 0)
        )


def _merge_two_metrics(a: dict, b: dict) -> dict:
    """Merge two ``metrics_json`` documents (associative)."""
    out: dict = {}
    keys = list(a) + [k for k in b if k not in a]
    for key in keys:
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            out[key] = va if vb is None else vb
        elif key in ("statuses", "degrade_rungs"):
            merged = dict(va)
            for name, n in vb.items():
                merged[name] = merged.get(name, 0) + n
            out[key] = merged
        elif key == "latency":
            out[key] = {
                stage: merge_histogram_json(va.get(stage, {}), vb.get(stage, {}))
                for stage in {*va, *vb}
            }
        elif key == "kernel_counters":
            out[key] = merge_snapshots(va, vb)
        elif key in ("queue", "runtime", "network", "autotune"):
            out[key] = _merge_numeric_section(va, vb)
        elif key == "streaming":
            merged = _merge_numeric_section(
                {k: v for k, v in va.items() if k != "streams"},
                {k: v for k, v in vb.items() if k != "streams"},
            )
            merged["streams"] = sorted(
                {*va.get("streams", []), *vb.get("streams", [])}
            )
            out[key] = merged
        elif isinstance(va, bool) or isinstance(vb, bool):
            out[key] = va and vb
        elif isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            out[key] = max(va, vb) if key in _MAX_KEYS else va + vb
        else:
            out[key] = va if va == vb else "mixed"
    return out


def merge_metrics_json(snapshots) -> dict:
    """Fold per-shard ``metrics_json`` snapshots into one aggregate.

    Associative and order-independent in the merged primaries: counts
    and seconds sum, peaks take the max, histograms merge bucket-wise,
    kernel counters go through
    :func:`repro.analysis.counters.merge_snapshots`, and derived fields
    (hit rates, quantiles, speedups) are recomputed from the merged
    inputs rather than averaged.
    """
    snapshots = list(snapshots)
    if not snapshots:
        return {}
    merged = dict(snapshots[0])
    # Normalize the first snapshot's derived fields through the same
    # path later merges take, so a single-shard aggregate is identical
    # to a two-shard aggregate with an empty peer.
    for section in ("queue", "runtime", "network", "autotune"):
        if isinstance(merged.get(section), dict):
            merged[section] = _merge_numeric_section(merged[section], {})
    for other in snapshots[1:]:
        merged = _merge_two_metrics(merged, other)
    return merged
