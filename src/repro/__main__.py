"""Command-line interface: ``python -m repro``.

Subcommands
-----------
``info``
    Print version, platform models, and the benchmark case registry.
``run CASE``
    Run one registry case (e.g. ``chic_01``, ``C-vvov``) with a chosen
    method and print the plan, timings and counters.
``plan``
    Evaluate Algorithm 7 for explicit problem parameters without
    running anything — the paper's Table 3 calculation as a calculator,
    with the guard verdict the kernel would give (``dnf`` for the NIPS
    mode-2 dense entry).
``contract FILE_A FILE_B``
    Contract two FROSTT ``.tns`` files over given mode pairs and write
    the result as ``.tns``.
``batch CASE [CASE ...]``
    Run a pipeline of registry cases through the adaptive runtime
    (``repro.runtime``): plans are cached by structural signature,
    tiled tables are reused across steps sharing an operand, and the
    aggregate hit-rate/speedup metrics are printed at the end.
``network EXPR``
    Plan a multi-operand tensor-network contraction through
    :mod:`repro.network` — ``--explain`` prints the chosen path, per-step
    subscripts, predicted nnz/cost, accumulator choices and guard
    verdicts without executing; without it, random operands are drawn
    at the declared shapes/nnz and the plan runs through the network
    executor (``--repeat`` shows the warm plan-cache path).
``serve``
    Run a load generator against a live :mod:`repro.serve`
    :class:`~repro.serve.ContractionService`: a mixed-signature
    synthetic workload is submitted open-loop (Poisson arrivals at
    ``--rate``) or closed-loop (``--closed N`` clients), and the SLO
    metrics — per-stage latency percentiles, terminal status counts,
    queue stats, cache hit rates — are printed (``--json`` for the raw
    document).  ``--autotune`` turns on online bandit exploration
    (:mod:`repro.autotune`), with ``--autotune-state`` persisting the
    learned weights, measurements and promotions across restarts.
``autotune``
    Operate on learned autotune state: inspect a state file (default),
    ``--replay`` the promotion/rollback audit log, or ``--reset`` the
    learned state in place.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_info(args) -> int:
    import repro
    from repro.data.registry import all_cases
    from repro.machine.specs import DESKTOP, SERVER

    from repro.backends import backend_status

    print(f"repro {repro.__version__} — FaSTCC reproduction (SC '25)")
    for m in (DESKTOP, SERVER):
        print(f"  machine {m.name}: {m.n_cores} cores, "
              f"L3 {m.l3_bytes >> 20} MiB, dense tile {m.dense_tile_size()}")
    print("\nkernel backends:")
    for name, (ok, reason) in backend_status().items():
        mark = "available" if ok else "unavailable"
        print(f"  {name:<10} {mark:<12} {reason}")
    print(f"\nregistered benchmark cases ({len(all_cases())}):")
    for name, case in all_cases().items():
        print(f"  {name:<10} [{case.family}]  paper model: {case.paper['model']}")
    return 0


def _cmd_run(args) -> int:
    from repro import Counters, contract
    from repro.data.registry import get_case
    from repro.machine.specs import DESKTOP, SERVER

    from repro.errors import WorkspaceLimitError

    case = get_case(args.case)
    machine = SERVER if args.machine == "server" else DESKTOP
    left, right, pairs = case.load()
    counters = Counters()
    t0 = time.perf_counter()
    try:
        out, stats = contract(
            left, right, pairs,
            method=args.method, machine=machine,
            accumulator=args.accumulator, tile_size=args.tile,
            n_workers=args.workers, counters=counters, return_stats=True,
            backend=args.backend,
        )
    except WorkspaceLimitError as exc:
        # The paper's DNF regime (Table 3, NIPS mode 2 with dense tiles).
        print(f"case {args.case}: DNF — {exc}")
        return 2
    dt = time.perf_counter() - t0
    plan = stats.plan
    print(f"case {args.case} [{case.family}] via {args.method}")
    print(f"  inputs: nnz_L={left.nnz}, nnz_R={right.nnz}; "
          f"L={plan.spec.L}, R={plan.spec.R}, C={plan.spec.C}")
    print(f"  plan: {plan.accumulator} accumulator, tile "
          f"{plan.tile_l}x{plan.tile_r} on {plan.machine_name}")
    print(f"  output: nnz={out.nnz} ({out.ndim} modes), time={dt:.4f}s")
    print(f"  phases: " + ", ".join(
        f"{k}={v:.4f}s" for k, v in stats.phase_seconds.items()))
    print(f"  counters: {counters.snapshot()}")
    return 0


def _cmd_plan(args) -> int:
    from repro.core.guards import plan_guard
    from repro.core.model import choose_accumulator, choose_plan
    from repro.core.plan import ContractionSpec
    from repro.machine.specs import DESKTOP, SERVER
    from repro.util.arrays import ceil_div

    machine = SERVER if args.machine == "server" else DESKTOP
    if min(args.L, args.R, args.C) < 1 or not (
        0 <= args.nnz_l <= args.L * args.C and 0 <= args.nnz_r <= args.C * args.R
    ):
        print("plan needs --L/--R/--C >= 1, 0 <= --nnz-l <= L*C and "
              "0 <= --nnz-r <= C*R", file=sys.stderr)
        return 2
    choice = choose_accumulator(
        args.L, args.R, args.C, args.nnz_l, args.nnz_r, machine
    )
    # The planner only consumes L, R and C, so matrix form loses nothing.
    plan = choose_plan(
        ContractionSpec((args.L, args.C), (args.C, args.R), [(1, 0)]),
        args.nnz_l, args.nnz_r, machine,
    )
    guard = plan_guard(
        plan.accumulator, args.L, args.R, plan.tile_l, plan.tile_r,
        args.nnz_l, args.nnz_r,
    )
    print(f"Algorithm 7 on {machine.name}:")
    print(f"  p_L = {choice.p_l:.4e}, p_R = {choice.p_r:.4e}")
    print(f"  estimated output density = {choice.output_density:.4e}")
    print(f"  E_nnz(T^2) = {choice.expected_tile_nnz:.4e} "
          f"(probe tile T = {choice.dense_probe_tile})")
    print(f"  decision: {choice.accumulator} accumulator, "
          f"tile size {choice.tile_size}")
    print(f"  guard verdict: {guard.verdict} (grid "
          f"{ceil_div(args.L, plan.tile_l)}x{ceil_div(args.R, plan.tile_r)}, "
          f"<= {guard.tasks} tasks)"
          + (f": {guard.reason}" if guard.reason else ""))
    return 0


def _cmd_contract(args) -> int:
    from repro import contract
    from repro.tensors.io import read_tns, write_tns

    left = read_tns(args.file_a)
    right = read_tns(args.file_b)
    pairs = []
    for token in args.pairs.split(","):
        a, b = token.split(":")
        pairs.append((int(a), int(b)))
    t0 = time.perf_counter()
    out = contract(left, right, pairs, method=args.method, backend=args.backend)
    dt = time.perf_counter() - t0
    write_tns(out, args.output)
    print(f"contracted {left.nnz} x {right.nnz} nonzeros over {pairs} "
          f"-> {out.nnz} nonzeros in {dt:.3f}s; wrote {args.output}")
    return 0


def _cmd_batch(args) -> int:
    from repro.machine.specs import DESKTOP, SERVER
    from repro.runtime import BatchExecutor, BatchItem, ContractionRuntime

    machine = SERVER if args.machine == "server" else DESKTOP
    runtime = ContractionRuntime(
        machine=machine,
        cache_path=args.cache_file,
        n_workers=args.workers,
        calibrate=not args.no_calibrate,
        backend=args.backend,
        # Size the operand cache so a full pass over the distinct cases
        # fits — otherwise --repeat evicts every table before reuse.
        operand_cache_size=max(8, 2 * len(set(args.cases))),
    )
    items = []
    for _ in range(max(1, args.repeat)):
        for name in args.cases:
            left, right, pairs = _batch_operands(name)
            items.append(BatchItem(left, right, tuple(pairs), name=name))

    executor = BatchExecutor(runtime)
    t0 = time.perf_counter()
    report = executor.run(items)
    dt = time.perf_counter() - t0
    print(f"batch of {len(items)} contractions on {machine.name} "
          f"({dt:.4f}s wall):")
    print(report.summary())
    if runtime.calibrator is not None and runtime.calibrator.samples:
        runtime.calibrator.fit()
        before, after = runtime.calibrator.improvement()
        print(f"cost-model calibration over {len(runtime.calibrator.samples)} "
              f"runs: relative error {before:.2f} -> {after:.2f}")
    if args.cache_file:
        runtime.flush()
        print(f"plan cache persisted to {args.cache_file} "
              f"({len(runtime.plan_cache)} entries)")
    return 0


def _batch_operands(name: str):
    """Load one registry case, memoized so repeated steps share the
    *same* tensor objects (what makes table reuse kick in)."""
    from repro.data.registry import get_case

    cache = _batch_operands.__dict__.setdefault("cache", {})
    if name not in cache:
        cache[name] = get_case(name).load()
    return cache[name]


def _cmd_network(args) -> int:
    import json

    from repro.data.random_tensors import random_coo
    from repro.machine.specs import DESKTOP, SERVER
    from repro.network import NetworkExecutor, TensorNetwork, annotate_plan, build_plan
    from repro.network.optimize import resolve_optimizer

    machine = SERVER if args.machine == "server" else DESKTOP
    shapes = _parse_shapes(args.shapes)
    nnz = [int(n) for n in args.nnz.split(",")] if args.nnz else None

    network = TensorNetwork.parse(args.expr, shapes, nnz=nnz)
    plan = build_plan(
        network, machine, resolve_optimizer(args.optimizer, network)
    )
    if args.passes == "default":  # the annotated plan the executor runs
        plan = annotate_plan(plan, network)
    if args.json:
        print(json.dumps(plan.to_json(), indent=2))
    else:
        print(plan.explain())
    if args.explain:
        return 0

    # Execute mode: draw random operands at the declared shapes/nnz and
    # run the plan through a fresh executor, --repeat times (repeats
    # after the first replay cached plans at both levels).
    executor = NetworkExecutor(
        machine=machine, n_workers=args.workers,
        passes=args.passes == "default",
    )
    operands = [
        random_coo(meta.shape, nnz=meta.nnz, seed=args.seed + k)
        for k, meta in enumerate(network.operands)
    ]
    print()
    for r in range(max(1, args.repeat)):
        out, report = executor.contract(
            args.expr, *operands,
            optimizer=args.optimizer, method=args.method,
            return_report=True, backend=args.backend,
        )
        print(f"run {r}:")
        print(report.summary())
    print()
    print("executor metrics:")
    for k, v in executor.metrics().items():
        print(f"  {k} = {v}")
    return 0


def _parse_shapes(text: str) -> list[tuple[int, ...]]:
    return [
        tuple(int(d) for d in token.split("x"))
        for token in text.split(",") if token
    ]


def _serve_backend(args, machine, config):
    """The serving backend the CLI flags select.

    ``--shards 1`` (the default) runs the in-process
    :class:`~repro.serve.ContractionService`; ``--shards N`` fronts N
    spawned shard processes with the consistent-hash
    :class:`~repro.serve.ShardRouter`.  Both speak the same
    ``submit``/context-manager surface, so the load generators drive
    either.
    """
    from repro.serve import ContractionService, ShardedConfig, ShardRouter

    if args.shards > 1:
        sharded = ShardedConfig(
            n_shards=args.shards,
            service=config,
            cache_dir=getattr(args, "cache_dir", None),
        )
        return ShardRouter(machine=machine, config=sharded)
    return ContractionService(machine=machine, config=config)


def _render_service(service) -> str:
    """Human-readable metrics for either backend."""
    metrics = getattr(service, "metrics", None)
    if metrics is not None:
        return metrics.render()
    doc = service.metrics_json()
    router = doc["router"]
    agg = doc["aggregate"]
    lines = [
        f"sharded service: {router['live_shards']}/{router['n_shards']} "
        f"shards live, deaths={router['deaths']}, "
        f"requeued={router['requeued']}, respawns={router['respawns']}",
        f"  aggregate statuses: {agg['statuses']}",
        f"  aggregate plan hit rate: "
        f"{agg['runtime']['plan_hit_rate']:.1%}",
    ]
    for shard_id, shard in sorted(doc["shards"].items()):
        runtime = shard.get("runtime", {})
        lines.append(
            f"  shard {shard_id}: statuses {shard['statuses']}, "
            f"plan hit rate {runtime.get('plan_hit_rate', 0.0):.1%}"
        )
    return "\n".join(lines)


def _cmd_serve(args) -> int:
    import json

    from repro.machine.specs import DESKTOP, SERVER
    from repro.serve import (
        ServiceConfig,
        run_closed_loop,
        run_open_loop,
        synthetic_requests,
    )

    machine = SERVER if args.machine == "server" else DESKTOP
    config = ServiceConfig(
        queue_capacity=args.capacity,
        policy=args.policy,
        n_workers=args.workers,
        max_batch=args.max_batch,
        default_deadline_s=args.deadline,
        backend=args.backend or "numpy",
        autotune=args.autotune,
        autotune_explore_rate=args.autotune_rate,
        autotune_state_path=args.autotune_state,
    )
    requests = synthetic_requests(
        args.requests,
        n_signatures=args.signatures,
        seed=args.seed,
        deadline_s=args.deadline,
    )
    # Not a ``with`` block: a KeyboardInterrupt would unwind the context
    # manager, but ``close()`` in ``finally`` also reaps shard processes
    # spawned before ``start()`` finished (see ShardRouter.close).
    service = _serve_backend(args, machine, config)
    try:
        service.start()
        if args.closed:
            report = run_closed_loop(
                service, requests, concurrency=args.closed, seed=args.seed
            )
        else:
            report = run_open_loop(
                service, requests, args.rate, seed=args.seed
            )
        if args.json:
            doc = {"load": report.to_json(), "service": service.metrics_json()}
            print(json.dumps(doc, indent=2))
        else:
            print(report.render())
            print()
            print(_render_service(service))
            tuner = getattr(service, "tuner", None)
            if tuner is not None:
                print(f"  autotune: {tuner.metrics()}")
    finally:
        service.close()
    return 0


def _cmd_autotune(args) -> int:
    import json

    if args.state is None:
        print("repro autotune needs --state FILE", file=sys.stderr)
        return 2

    from repro.autotune import AutotuneState

    # The machine name is embedded in the file; read it first so the
    # loader's machine-mismatch guard does not fight the inspector.
    try:
        with open(args.state, encoding="utf-8") as fh:
            machine_name = str(json.load(fh).get("machine", ""))
    except (OSError, ValueError) as exc:
        if args.reset:
            machine_name = "desktop-i7-11700F"
        else:
            print(f"cannot read {args.state}: {exc}", file=sys.stderr)
            return 1

    if args.reset:
        fresh = AutotuneState(machine_name)
        path = fresh.save(args.state)
        print(f"reset learned autotune state at {path} "
              f"(machine {machine_name})")
        return 0

    state = AutotuneState(machine_name)
    if not state.load(args.state):
        print(f"cannot load {args.state}: {state.load_error}",
              file=sys.stderr)
        return 1

    if args.replay:
        if args.json:
            print(json.dumps([e.to_json() for e in state.history], indent=2))
            return 0
        if not state.history:
            print("no promotion history")
            return 0
        for e in state.history:
            print(f"{e.timestamp:.3f} {e.event:<9} {e.arm_id:<16} "
                  f"challenger {e.challenger_mean:.3e}s vs champion "
                  f"{e.champion_mean:.3e}s  [{e.sig_key}]")
            if e.reason:
                print(f"    {e.reason}")
        return 0

    if args.json:
        print(json.dumps(state.summary(), indent=2))
        return 0
    s = state.summary()
    print(f"autotune state {args.state} (machine {s['machine']}):")
    print(f"  weights fitted: {s['weights_fitted']}")
    print(f"  measurements: {s['samples']} samples over "
          f"{s['signatures']} signatures")
    print(f"  champions: {s['champions']} promoted "
          f"({s['promotions']} promotions, {s['rollbacks']} rollbacks "
          f"on record)")
    for sig_key, record in sorted(state.champions.items()):
        print(f"    {record.arm_id:<16} baseline "
              f"{record.baseline_mean:.3e}s  [{sig_key}]")
    return 0


def _add_backend_flag(subparser) -> None:
    """Shared ``--backend`` flag (kernel backend selection)."""
    subparser.add_argument(
        "--backend", default=None,
        choices=["numpy", "scipy", "arrayapi", "auto"],
        help="kernel backend (default: $REPRO_BACKEND or the numpy "
             "reference; 'auto' picks per problem)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FaSTCC sparse tensor contraction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show version, machines and cases")

    run = sub.add_parser("run", help="run a registry benchmark case")
    run.add_argument("case")
    run.add_argument("--method", default="fastcc",
                     choices=["fastcc", "sparta", "taco", "ci", "cm", "co"])
    run.add_argument("--machine", default="desktop",
                     choices=["desktop", "server"])
    run.add_argument("--accumulator", default="auto",
                     choices=["auto", "dense", "sparse"])
    run.add_argument("--tile", type=int, default=None)
    run.add_argument("--workers", type=int, default=1)
    _add_backend_flag(run)

    plan = sub.add_parser("plan", help="evaluate Algorithm 7 for parameters")
    plan.add_argument("--L", type=int, required=True)
    plan.add_argument("--R", type=int, required=True)
    plan.add_argument("--C", type=int, required=True)
    plan.add_argument("--nnz-l", type=int, required=True, dest="nnz_l")
    plan.add_argument("--nnz-r", type=int, required=True, dest="nnz_r")
    plan.add_argument("--machine", default="desktop",
                      choices=["desktop", "server"])

    batch = sub.add_parser(
        "batch", help="run registry cases through the adaptive runtime"
    )
    batch.add_argument("cases", nargs="+",
                       help="registry case names, executed in order")
    batch.add_argument("--repeat", type=int, default=1,
                       help="repeat the whole pipeline N times")
    batch.add_argument("--machine", default="desktop",
                       choices=["desktop", "server"])
    batch.add_argument("--workers", type=int, default=1)
    batch.add_argument("--cache-file", default=None,
                       help="JSON plan-cache file (loaded if present, "
                            "saved on exit)")
    batch.add_argument("--no-calibrate", action="store_true",
                       help="skip cost-model calibration")
    _add_backend_flag(batch)

    net = sub.add_parser(
        "network", help="plan (and optionally execute) a multi-operand "
                        "tensor-network contraction"
    )
    net.add_argument("expr",
                     help="einsum subscripts, e.g. 'ij,jk,kl->il'")
    net.add_argument("--shapes", required=True,
                     help="per-operand shapes, e.g. '100x200,200x50,50x30'")
    net.add_argument("--nnz", default=None,
                     help="per-operand nonzero counts (default 1%% density)")
    net.add_argument("--optimizer", default="auto",
                     choices=["auto", "left", "greedy", "dp", "sparsity"])
    net.add_argument("--machine", default="desktop",
                     choices=["desktop", "server"])
    net.add_argument("--explain", action="store_true",
                     help="print the plan only; do not execute")
    net.add_argument("--json", action="store_true",
                     help="print the plan as JSON instead of the table")
    net.add_argument("--method", default="fastcc",
                     choices=["fastcc", "sparta", "taco", "ci", "cm", "co"])
    net.add_argument("--seed", type=int, default=0,
                     help="seed for the randomly drawn operands")
    net.add_argument("--repeat", type=int, default=1,
                     help="execute the network N times (repeats hit the "
                          "plan caches)")
    net.add_argument("--passes", default="default",
                     choices=["default", "none"],
                     help="plan annotations (CSE, dead steps, table "
                          "hoisting): 'default' sets them, 'none' skips "
                          "them")
    net.add_argument("--workers", type=int, default=1)
    _add_backend_flag(net)

    serve = sub.add_parser(
        "serve", help="run a load generator against a live contraction "
                      "service and report SLO metrics"
    )
    serve.add_argument("--policy", default="reject",
                       choices=["reject", "shed_oldest", "block"])
    serve.add_argument("--capacity", type=int, default=64,
                       help="admission queue bound")
    serve.add_argument("--workers", type=int, default=2,
                       help="service worker threads")
    serve.add_argument("--max-batch", type=int, default=8, dest="max_batch",
                       help="micro-batch drain size")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-request deadline in seconds")
    serve.add_argument("--requests", type=int, default=40,
                       help="synthetic request count")
    serve.add_argument("--signatures", type=int, default=4,
                       help="distinct problem signatures in the stream")
    serve.add_argument("--rate", type=float, default=50.0,
                       help="open-loop offered rate (requests/second)")
    serve.add_argument("--closed", type=int, default=0, metavar="N",
                       help="use N closed-loop clients instead of the "
                            "open-loop Poisson generator")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--shards", type=int, default=1,
                       help="front N shard processes with the "
                            "consistent-hash router (1 = in-process)")
    serve.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="per-shard plan-cache directory for "
                            "warm-start across restarts")
    serve.add_argument("--machine", default="desktop",
                       choices=["desktop", "server"])
    serve.add_argument("--json", action="store_true",
                       help="print the load report and service metrics "
                            "as one JSON document")
    serve.add_argument("--autotune", action="store_true",
                       help="explore challenger plans on eligible live "
                            "traffic (bandit autotuning)")
    serve.add_argument("--autotune-rate", type=float, default=0.05,
                       dest="autotune_rate",
                       help="fraction of eligible calls that may run a "
                            "challenger (default 0.05)")
    serve.add_argument("--autotune-state", default=None,
                       dest="autotune_state",
                       help="JSON file persisting learned weights, "
                            "measurements and promotions across restarts "
                            "(sharded serving derives per-shard files "
                            "from --cache-dir instead)")
    _add_backend_flag(serve)

    tune = sub.add_parser(
        "autotune", help="inspect, replay, or reset learned autotune state"
    )
    tune.add_argument("--state", default=None,
                      help="autotune state file to operate on")
    tune.add_argument("--replay", action="store_true",
                      help="print the promotion/rollback audit log")
    tune.add_argument("--reset", action="store_true",
                      help="clear the learned state in place")
    tune.add_argument("--json", action="store_true",
                      help="machine-readable output")

    con = sub.add_parser("contract", help="contract two .tns files")
    con.add_argument("file_a")
    con.add_argument("file_b")
    con.add_argument("--pairs", required=True,
                     help="mode pairs as 'a:b,c:d' (left:right)")
    con.add_argument("--output", default="out.tns")
    con.add_argument("--method", default="fastcc")
    _add_backend_flag(con)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "info": _cmd_info,
        "run": _cmd_run,
        "plan": _cmd_plan,
        "contract": _cmd_contract,
        "batch": _cmd_batch,
        "network": _cmd_network,
        "serve": _cmd_serve,
        "autotune": _cmd_autotune,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
