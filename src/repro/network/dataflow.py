"""Plan annotations over an SSA view of a network plan.

A :class:`~repro.network.plan.NetworkPlan` is a straight-line program:
each step consumes two live operands and defines one intermediate, in
the shrinking-live-list position convention.  Positions are convenient
for execution but hostile to analysis — the same value sits at a
different index before and after every step — so this module first
rebuilds the plan as an SSA-style :class:`PlanGraph`: every network
input and every step result is a :class:`Value` with a stable id, and
every step is an :class:`Op` referencing value ids.

:func:`annotate_plan` walks that graph once and sets the three step
annotations the executor may act on (``cse_of``, ``dead``,
``hoist_l``/``hoist_r``).  Each one is only a hint: the executor
re-checks its premise against the live tensors before it skips work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.errors import PlanError
from repro.network.ir import TensorNetwork
from repro.network.plan import NetworkPlan, PlanStep

__all__ = [
    "Value",
    "Op",
    "PlanGraph",
    "ANNOTATIONS",
    "annotate_plan",
    "expression_key",
    "canonical_pattern",
]

#: What :func:`annotate_plan` records in ``NetworkPlan.passes``; joined
#: with commas it is the annotation half of every plan-cache key.
ANNOTATIONS = ("cse", "dead", "hoist")


@dataclass(frozen=True)
class Value:
    """One SSA value: a network input or a step result."""

    id: int
    sub: str
    shape: tuple[int, ...]
    origin: tuple  # ("input", operand position) | ("step", step index)

    @property
    def is_input(self) -> bool:
        return self.origin[0] == "input"


@dataclass(frozen=True)
class Op:
    """One plan step in value-id form."""

    index: int
    left: int
    right: int
    out: int
    step: PlanStep


class PlanGraph:
    """SSA-style view of a plan: values and ops instead of positions.

    Construction simulates the shrinking live list and checks, step by
    step, that positions are in range and that each step's recorded
    ``sub_l``/``sub_r`` match the values actually at those positions —
    so merely *building* the graph validates the plan's structural
    skeleton.
    """

    __slots__ = ("values", "ops", "output_value", "n_inputs", "network")

    def __init__(
        self,
        values: Sequence[Value],
        ops: Sequence[Op],
        output_value: int,
        n_inputs: int,
        network: TensorNetwork,
    ):
        self.values = tuple(values)
        self.ops = tuple(ops)
        self.output_value = output_value
        self.n_inputs = n_inputs
        self.network = network

    @classmethod
    def from_plan(cls, plan: NetworkPlan, network: TensorNetwork) -> "PlanGraph":
        if len(plan.input_subs) != network.n_operands:
            raise PlanError(
                f"plan names {len(plan.input_subs)} operands but the "
                f"network has {network.n_operands}"
            )
        values: list[Value] = []
        for k, (meta, reduced) in enumerate(
            zip(network.operands, plan.input_subs)
        ):
            if set(reduced) - set(meta.subscript):
                raise PlanError(
                    f"plan operand {k} subscript {reduced!r} names indices "
                    f"absent from the network operand {meta.subscript!r}"
                )
            values.append(Value(
                id=k, sub=reduced,
                shape=tuple(network.extents[ch] for ch in reduced),
                origin=("input", k),
            ))

        live = list(range(network.n_operands))
        ops: list[Op] = []
        for s, step in enumerate(plan.steps):
            if not (0 <= step.i < step.j < len(live)):
                raise PlanError(
                    f"step {s} positions ({step.i}, {step.j}) do not fit "
                    f"the live list (length {len(live)})"
                )
            vl, vr = values[live[step.i]], values[live[step.j]]
            if (vl.sub, vr.sub) != (step.sub_l, step.sub_r):
                raise PlanError(
                    f"step {s} records inputs "
                    f"{step.sub_l!r},{step.sub_r!r} but the live values "
                    f"are {vl.sub!r},{vr.sub!r}"
                )
            expected_out = _derive_out_sub(step.sub_l, step.sub_r, step.kind)
            if step.sub_out != expected_out:
                raise PlanError(
                    f"step {s} output {step.sub_out!r} is inconsistent "
                    f"with its inputs (expected {expected_out!r})"
                )
            out_shape = tuple(network.extents[ch] for ch in step.sub_out)
            out = Value(
                id=len(values), sub=step.sub_out, shape=out_shape,
                origin=("step", s),
            )
            values.append(out)
            ops.append(Op(
                index=s, left=vl.id, right=vr.id, out=out.id, step=step,
            ))
            del live[step.j], live[step.i]
            live.append(out.id)

        if len(live) != 1:
            raise PlanError(
                f"plan leaves {len(live)} live operands; expected exactly 1"
            )
        final = values[live[0]]
        if final.sub != plan.final_sub:
            raise PlanError(
                f"plan final_sub {plan.final_sub!r} does not match the "
                f"computed result {final.sub!r}"
            )
        if set(final.sub) != set(plan.output):
            raise PlanError(
                f"plan result carries indices {final.sub!r} but the "
                f"output wants {plan.output!r}"
            )
        return cls(values, ops, final.id, network.n_operands, network)

    def value_of_step(self, step_index: int) -> Value:
        return self.values[self.n_inputs + step_index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanGraph(values={len(self.values)}, ops={len(self.ops)}, "
            f"out=v{self.output_value})"
        )


def _derive_out_sub(sub_l: str, sub_r: str, kind: str) -> str:
    """The output subscript a step must produce from its inputs."""
    if kind == "outer":
        return sub_l + sub_r
    shared = {ch for ch in sub_l if ch in sub_r}
    return (
        "".join(ch for ch in sub_l if ch not in shared)
        + "".join(ch for ch in sub_r if ch not in shared)
    )


def canonical_pattern(step: PlanStep) -> tuple:
    """The step's index structure with letters renamed positionally.

    Two steps with equal patterns perform the same array computation on
    their inputs regardless of what the indices are called: the rename
    maps each distinct letter to its first-occurrence rank across
    ``sub_l + sub_r + sub_out``, so ``ab,bc->ac`` and ``de,ef->df``
    collapse to the same pattern while ``ab,cb->ac`` does not.
    """
    rename: dict[str, int] = {}
    for ch in step.sub_l + step.sub_r + step.sub_out:
        if ch not in rename:
            rename[ch] = len(rename)
    canon = lambda sub: tuple(rename[ch] for ch in sub)  # noqa: E731
    return (
        step.kind,
        canon(step.sub_l),
        canon(step.sub_r),
        canon(step.sub_out),
        tuple(step.pairs),
    )


def expression_key(
    graph: PlanGraph,
    value_id: int,
    dtypes: Sequence[str] | None = None,
) -> tuple:
    """Structural identity of the expression computing a value.

    Inputs are keyed by their declared metadata (shape, nnz, dtype when
    known) — *not* by position, so two metadata-identical operands are
    CSE candidates whose actual equality the executor confirms with
    content digests at run time.  Step values key recursively on the
    canonical index pattern plus both input keys, which makes duplicate
    subtrees match bottom-up.
    """
    value = graph.values[value_id]
    if value.is_input:
        pos = value.origin[1]
        dtype = dtypes[pos] if dtypes is not None else ""
        meta = graph.network.operands[pos]
        kept = tuple(
            m for m, ch in enumerate(meta.subscript) if ch in value.sub
        )
        return ("in", meta.shape, meta.nnz, kept, dtype)
    op = graph.ops[value.origin[1]]
    return (
        "step",
        canonical_pattern(op.step),
        expression_key(graph, op.left, dtypes),
        expression_key(graph, op.right, dtypes),
    )


def annotate_plan(
    plan: NetworkPlan,
    network: TensorNetwork,
    dtypes: Sequence[str] | None = None,
) -> NetworkPlan:
    """The plan with every step's annotations set, in one walk.

    * ``cse_of`` — the first earlier step with an equal
      :func:`expression_key`; the executor reuses its result only when
      the inputs' content digests and canonical patterns match too.
    * ``dead`` — the step's subtree reaches a declared-empty operand, so
      its product is empty; the plan's ``zero_operands`` records that
      premise, which the executor confirms on the live tensors.
    * ``hoist_l``/``hoist_r`` — a contract step's input is a network
      operand, so :meth:`~repro.network.executor.NetworkExecutor.prepare`
      may build its tables once.

    ``dtypes`` (one name per operand, when known) keeps CSE from
    merging expressions over operands of different dtypes.
    """
    graph = PlanGraph.from_plan(plan, network)
    zeros = network.empty_operands()
    empty = set(zeros)  # input value ids are operand positions
    first_of: dict[tuple, int] = {}
    steps = []
    for op in graph.ops:
        prior = first_of.setdefault(
            expression_key(graph, op.out, dtypes), op.index
        )
        dead = op.left in empty or op.right in empty
        if dead:
            empty.add(op.out)
        contract = op.step.kind == "contract"
        steps.append(replace(
            op.step,
            cse_of=prior if prior != op.index else -1,
            dead=dead,
            hoist_l=contract and graph.values[op.left].is_input,
            hoist_r=contract and graph.values[op.right].is_input,
        ))
    return replace(
        plan, steps=tuple(steps), passes=ANNOTATIONS, zero_operands=zeros
    )
