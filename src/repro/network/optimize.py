"""Contraction-path optimizers over the network IR.

Four strategies, all emitting the same ``numpy.einsum_path``-style
position list and all consuming only declared metadata (shapes + nnz):

``left``
    Left-to-right binarization — the reproducible baseline every
    comparison is measured against.
``greedy``
    The legacy nnz heuristic: score candidate pairs with the paper's
    Section 5.1 output-density estimate (``density * L * R + inputs``)
    and always prefer connected pairs over outer products.
``sparsity``
    Sparsity-aware greedy: candidate pairs are scored by *modeled
    seconds* — the Section 5.1 density estimate decides Algorithm 7's
    accumulator/tile for the step, and the Section 5.3 tiled-CO access
    model (:class:`~repro.machine.cost_model.AccessCostModel`) prices
    the resulting queries, data volume, and accumulator updates on the
    target machine.
``dp``
    Optimal dynamic-programming search over each connected component
    (Kanakagiri & Solomonik show path choice dominates cost for sparse
    networks): minimizes the same modeled seconds the sparsity-aware
    mode scores with, exactly, for components of up to
    :data:`DP_OPERAND_LIMIT` operands.

Disconnected networks are planned per component; component results are
combined with explicit outer products, cheapest (smallest predicted
result) first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from repro.core.guards import plan_guard
from repro.core.model import choose_accumulator, estimate_output_density
from repro.errors import PlanError
from repro.machine.cost_model import DEFAULT_WEIGHTS, AccessCostModel, ProblemShape
from repro.machine.specs import MachineSpec
from repro.network.dataflow import annotate_plan
from repro.network.ir import TensorNetwork
from repro.network.plan import NetworkPlan, NetworkSignature, PlanStep

__all__ = [
    "OPTIMIZERS",
    "DP_OPERAND_LIMIT",
    "AUTO_DP_LIMIT",
    "optimize_path",
    "resolve_optimizer",
    "build_plan",
    "plan_network",
]

#: Hard ceiling on one connected component's size for the DP search
#: (subset enumeration is exponential; 3^10 splits is the practical cap).
DP_OPERAND_LIMIT = 10

#: ``auto`` uses the exact DP search up to this many operands per
#: component, falling back to the sparsity-aware greedy beyond it.
AUTO_DP_LIMIT = 6


@dataclass(frozen=True)
class _Node:
    """A live (possibly intermediate) operand during path search."""

    sub: str
    shape: tuple[int, ...]
    nnz: float


@dataclass(frozen=True)
class _StepEstimate:
    """Everything one candidate pairwise step is predicted to do."""

    node: _Node            # the resulting intermediate
    kind: str              # "contract" | "outer"
    pairs: tuple[tuple[int, int], ...]
    score: float           # legacy greedy score (Section 5.1 oracle)
    seconds: float         # modeled seconds (Section 5.3 access model)
    accumulator: str
    tile: int
    guard: str = ""        # the kernel guards' verdict ("" for outer steps)


def _estimate_step(a: _Node, b: _Node, machine: MachineSpec) -> _StepEstimate:
    """Predict the result and cost of contracting two live operands."""
    shared = [ch for ch in a.sub if ch in b.sub]
    ext_sub = "".join(ch for ch in a.sub if ch not in shared) + "".join(
        ch for ch in b.sub if ch not in shared
    )
    extents = {ch: e for ch, e in zip(a.sub, a.shape)}
    extents.update({ch: e for ch, e in zip(b.sub, b.shape)})
    out_shape = tuple(extents[ch] for ch in ext_sub)

    if not shared:
        # Outer product: every nonzero pair materializes one output
        # coordinate (duplicates merge, so this is an upper bound).
        est_nnz = min(a.nnz * b.nnz, float(math.prod(out_shape)) or 1.0)
        seconds = DEFAULT_WEIGHTS.seconds(
            queries=0.0,
            data_volume=a.nnz + b.nnz + a.nnz * b.nnz,
            updates=0.0,
            workspace_fits=True,
        )
        return _StepEstimate(
            node=_Node(ext_sub, out_shape, est_nnz),
            kind="outer",
            pairs=(),
            score=a.nnz * b.nnz,
            seconds=seconds,
            accumulator="",
            tile=0,
        )

    pairs = tuple((a.sub.index(ch), b.sub.index(ch)) for ch in shared)
    L = max(1, math.prod(extents[ch] for ch in a.sub if ch not in shared))
    R = max(1, math.prod(extents[ch] for ch in b.sub if ch not in shared))
    C = max(1, math.prod(extents[ch] for ch in shared))
    nnz_a = max(1, int(a.nnz))
    nnz_b = max(1, int(b.nnz))
    density = estimate_output_density(L, R, C, nnz_a, nnz_b)
    est_nnz = min(density * L * R, a.nnz * b.nnz, float(L) * R)

    # Algorithm 7's decision for this step's linearized problem, then
    # the tiled-CO access model priced on the target machine.
    choice = choose_accumulator(L, R, C, nnz_a, nnz_b, machine)
    tile_l = max(1, min(choice.tile_size, L))
    tile_r = max(1, min(choice.tile_size, R))
    model = AccessCostModel(ProblemShape(L, R, C, nnz_a, nnz_b), machine)
    cost = model.tiled_co(tile_l, tile_r)
    # Expected multiply/accumulate events under the uniform model: each
    # of the C contraction slices pairs nnz_a/C with nnz_b/C nonzeros.
    updates = (a.nnz * b.nnz) / C
    seconds = model.estimated_seconds(cost, updates)

    return _StepEstimate(
        node=_Node(ext_sub, out_shape, est_nnz),
        kind="contract",
        pairs=pairs,
        score=density * L * R + a.nnz + b.nnz,
        seconds=seconds,
        accumulator=choice.accumulator,
        tile=choice.tile_size,
        guard=plan_guard(
            choice.accumulator, L, R, tile_l, tile_r, nnz_a, nnz_b
        ).verdict,
    )


def _initial_nodes(network: TensorNetwork) -> list[_Node]:
    """Per-operand nodes after marginalizing dead single indices."""
    nodes = []
    for meta, reduced in zip(network.operands, network.reduced_inputs()):
        shape = tuple(
            e for ch, e in zip(meta.subscript, meta.shape) if ch in reduced
        )
        cells = float(math.prod(shape)) if shape else 1.0
        nodes.append(_Node(reduced, shape, min(float(meta.nnz), cells)))
    return nodes


# -- the path searches --------------------------------------------------


def _search_left(nodes: list[_Node], machine: MachineSpec) -> list[tuple[int, int]]:
    live = list(nodes)
    path = []
    while len(live) > 1:
        est = _estimate_step(live[0], live[1], machine)
        path.append((0, 1))
        del live[1], live[0]
        live.append(est.node)
    return path


def _search_greedy(
    nodes: list[_Node], machine: MachineSpec, *, model_cost: bool
) -> list[tuple[int, int]]:
    """Best-pair-first search; ``model_cost`` switches the oracle from
    the legacy Section 5.1 score to modeled seconds (sparsity-aware)."""
    live = list(nodes)
    path = []
    while len(live) > 1:
        best = None
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                est = _estimate_step(live[i], live[j], machine)
                cost = est.seconds if model_cost else est.score
                key = (est.kind == "outer", cost)
                if best is None or key < best[0]:
                    best = (key, i, j, est)
        _, i, j, est = best
        path.append((i, j))
        del live[j], live[i]
        live.append(est.node)
    return path


def _search_dp(
    nodes: list[_Node],
    machine: MachineSpec,
    components: list[tuple[int, ...]],
) -> list[tuple[int, int]]:
    """Exact subset DP per connected component, minimizing modeled
    seconds; component results combine smallest-first via outer
    products.  Trees are flattened back to shrinking-list positions."""
    for comp in components:
        if len(comp) > DP_OPERAND_LIMIT:
            raise PlanError(
                f"dp path search supports components of at most "
                f"{DP_OPERAND_LIMIT} operands, got {len(comp)}; use the "
                "greedy or sparsity optimizer"
            )

    trees = []  # one (cost, node, tree) per component; tree: int | (t1, t2)
    for comp in components:
        if len(comp) == 1:
            trees.append((0.0, nodes[comp[0]], comp[0]))
            continue
        best: dict[frozenset, tuple[float, _Node, object]] = {
            frozenset([k]): (0.0, nodes[k], k) for k in comp
        }
        for size in range(2, len(comp) + 1):
            for subset in itertools.combinations(comp, size):
                sset = frozenset(subset)
                anchor = subset[0]
                rest = subset[1:]
                winner = None
                # Every bipartition, anchored so each split is seen once.
                for r in range(len(rest) + 1):
                    for half in itertools.combinations(rest, r):
                        s1 = frozenset((anchor, *half))
                        s2 = sset - s1
                        if not s2:
                            continue
                        c1, n1, t1 = best[s1]
                        c2, n2, t2 = best[s2]
                        est = _estimate_step(n1, n2, machine)
                        total = c1 + c2 + est.seconds
                        if winner is None or total < winner[0]:
                            winner = (total, est.node, (t1, t2))
                best[sset] = winner
        trees.append(best[frozenset(comp)])

    # Fold component results together, smallest predicted result first
    # (stable sort keeps the request order among equals).
    trees.sort(key=lambda t: t[1].nnz)
    cost, node, tree = trees[0]
    for c2, n2, t2 in trees[1:]:
        est = _estimate_step(node, n2, machine)
        node, tree = est.node, (tree, t2)
    return _tree_to_path(tree, len(nodes))


def _tree_to_path(tree, n_operands: int) -> list[tuple[int, int]]:
    """Flatten a binary contraction tree over original operand ids into
    shrinking-live-list ``(i, j)`` positions."""
    live: list[frozenset] = [frozenset([k]) for k in range(n_operands)]
    path: list[tuple[int, int]] = []

    def walk(t) -> frozenset:
        if isinstance(t, int):
            return frozenset([t])
        left = walk(t[0])
        right = walk(t[1])
        i, j = live.index(left), live.index(right)
        if i > j:
            i, j = j, i
        path.append((i, j))
        merged = live[i] | live[j]
        del live[j], live[i]
        live.append(merged)
        return merged

    walk(tree)
    return path


def resolve_optimizer(name: str, network: TensorNetwork) -> str:
    """Resolve ``auto`` to a concrete strategy for this network."""
    if name not in OPTIMIZERS and name != "auto":
        raise PlanError(
            f"optimizer must be one of auto|{'|'.join(OPTIMIZERS)}, "
            f"got {name!r}"
        )
    if name != "auto":
        return name
    largest = max(
        (len(c) for c in network.connected_components()), default=1
    )
    return "dp" if largest <= AUTO_DP_LIMIT else "sparsity"


def optimize_path(
    network: TensorNetwork,
    machine: MachineSpec,
    optimizer: str = "auto",
) -> list[tuple[int, int]]:
    """Run one path search; returns ``numpy.einsum_path``-style pairs."""
    concrete = resolve_optimizer(optimizer, network)
    nodes = _initial_nodes(network)
    if len(nodes) <= 1:
        return []
    if concrete == "left":
        return _search_left(nodes, machine)
    if concrete == "greedy":
        return _search_greedy(nodes, machine, model_cost=False)
    if concrete == "sparsity":
        return _search_greedy(nodes, machine, model_cost=True)
    return _search_dp(nodes, machine, network.connected_components())


#: Concrete strategy registry (``auto`` resolves through
#: :func:`resolve_optimizer`).
OPTIMIZERS = ("left", "greedy", "dp", "sparsity")


def build_plan(
    network: TensorNetwork,
    machine: MachineSpec,
    optimizer: str = "auto",
    *,
    path: list[tuple[int, int]] | None = None,
) -> NetworkPlan:
    """Search (unless ``path`` is given) and freeze a :class:`NetworkPlan`.

    The plan's step metadata — subscripts, predicted nnz, modeled cost,
    accumulator/tile — is simulated with exactly the estimator the
    searches score with, so the executor can follow it literally.
    """
    concrete = resolve_optimizer(optimizer, network)
    if path is None:
        path = optimize_path(network, machine, concrete)
    nodes = _initial_nodes(network)
    n = len(nodes)
    if len(path) != max(0, n - 1):
        raise PlanError(
            f"path has {len(path)} steps; a {n}-operand network needs {n - 1}"
        )

    live = list(nodes)
    live_is_intermediate = [False] * n
    steps = []
    total_cost = 0.0
    peak = 0.0
    for i, j in path:
        if not (0 <= i < j < len(live)):
            raise PlanError(f"path step ({i}, {j}) is out of range")
        a, b = live[i], live[j]
        est = _estimate_step(a, b, machine)
        steps.append(PlanStep(
            i=i, j=j,
            sub_l=a.sub, sub_r=b.sub, sub_out=est.node.sub,
            kind=est.kind, pairs=est.pairs,
            est_nnz=est.node.nnz, est_cost=est.seconds,
            accumulator=est.accumulator, tile=est.tile, guard=est.guard,
        ))
        total_cost += est.seconds
        del live[j], live_is_intermediate[j]
        del live[i], live_is_intermediate[i]
        live.append(est.node)
        live_is_intermediate.append(True)
        alive = sum(
            node.nnz for node, inter in zip(live, live_is_intermediate)
            if inter
        )
        peak = max(peak, alive)

    signature = NetworkSignature.for_network(network, machine, concrete)
    return NetworkPlan(
        signature_key=signature.key,
        subscripts=network.subscripts,
        output=network.output,
        optimizer=concrete,
        machine_name=machine.name,
        input_subs=tuple(network.reduced_inputs()),
        steps=tuple(steps),
        est_total_cost=total_cost,
        est_peak_nnz=peak,
        final_sub=live[0].sub if live else "",
    )


def plan_network(
    subscripts: str,
    operands,
    *,
    machine: MachineSpec,
    optimizer: str = "auto",
    nnz=None,
    passes: bool = False,
) -> NetworkPlan:
    """Parse + optimize in one call (operands may be tensors, metadata,
    or bare shapes combined with ``nnz``).

    ``passes`` also sets the step annotations
    (:func:`~repro.network.dataflow.annotate_plan`) — the standalone
    analog of what :class:`~repro.network.NetworkExecutor` does on
    every plan-cache miss.
    """
    network = TensorNetwork.parse(subscripts, operands, nnz=nnz)
    plan = build_plan(network, machine, optimizer)
    if passes:
        plan = annotate_plan(plan, network)
    return plan
