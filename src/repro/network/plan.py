"""Serializable, explainable network contraction plans.

A :class:`NetworkPlan` freezes everything a path optimizer decided:
the pairwise step order (``numpy.einsum_path`` position convention),
each step's subscripts and contracted mode pairs, the predicted
intermediate nonzero count and modeled cost, and the accumulator/tile
choice Algorithm 7 makes for the step's linearized problem.  Plans are
keyed by a network-level :class:`NetworkSignature` (the analog of the
pairwise :class:`~repro.runtime.signature.ProblemSignature`) so a
repeated network request replays its path without re-optimizing — and,
because execution funnels each pairwise step through the runtime's
:class:`~repro.runtime.plan_cache.PlanCache`, without re-planning any
step either.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import PlanError
from repro.machine.specs import MachineSpec

__all__ = ["NetworkSignature", "PlanStep", "NetworkPlan"]

_FORMAT_VERSION = 1


def _machine_token(machine: MachineSpec) -> tuple:
    return (
        machine.name,
        machine.n_cores,
        machine.l3_bytes,
        machine.l2_bytes_per_core,
        machine.word_bytes,
    )


@dataclass(frozen=True)
class NetworkSignature:
    """Hashable structural identity of one network contraction problem.

    ``pipeline`` names the annotations the plan carries
    (``"cse,dead,hoist"``) — an empty string for the bare optimizer
    output.  It is part of the identity so an annotated and a bare plan
    for the same network can never collide in a plan cache.
    """

    subscripts: str
    shapes: tuple[tuple[int, ...], ...]
    nnzs: tuple[int, ...]
    machine: tuple  # (name, n_cores, l3_bytes, l2_bytes_per_core, word_bytes)
    optimizer: str = "auto"
    pipeline: str = ""

    @classmethod
    def for_network(
        cls,
        network,
        machine: MachineSpec,
        optimizer: str = "auto",
        pipeline: str = "",
    ) -> "NetworkSignature":
        return cls(
            subscripts=network.subscripts,
            shapes=tuple(m.shape for m in network.operands),
            nnzs=tuple(m.nnz for m in network.operands),
            machine=_machine_token(machine),
            optimizer=optimizer,
            pipeline=pipeline,
        )

    @property
    def key(self) -> str:
        """Stable string form, usable as a JSON object key.

        The ``|P...`` pipeline qualifier only appears for a non-empty
        pipeline, so pre-pipeline keys (and persisted caches) keep their
        historical form.
        """
        shapes = ";".join("x".join(map(str, s)) for s in self.shapes)
        nnzs = ",".join(map(str, self.nnzs))
        name, cores, l3, l2, word = self.machine
        base = (
            f"E{self.subscripts}|S{shapes}|n{nnzs}"
            f"|M{name};{cores};{l3};{l2};{word}|O{self.optimizer}"
        )
        return base + (f"|P{self.pipeline}" if self.pipeline else "")


@dataclass(frozen=True)
class PlanStep:
    """One pairwise step of a network plan.

    ``i``/``j`` index the *shrinking* live operand list (``i < j``):
    the step consumes both positions and appends its result at the end
    — the ``numpy.einsum_path`` convention.  ``sub_l``/``sub_r`` are the
    inputs' subscripts at that point, ``sub_out`` the result's.
    ``guard`` is :func:`repro.core.guards.plan_guard`'s verdict on the
    step's planned tiles (``"dnf"``: the kernel would refuse it).

    The last four fields are *plan annotations* (set by
    :func:`repro.network.dataflow.annotate_plan`).  They never change
    what the step computes — only how the executor may shortcut it:

    ``cse_of``
        Index of an earlier step computing the same expression
        (structurally); the executor reuses that step's result when the
        inputs' content digests confirm the match, else it computes
        normally.  ``-1`` means no reuse candidate.
    ``dead``
        The step's output is provably empty (zero-propagation from
        declared-empty operands); the executor short-circuits to an
        empty tensor once the zero premise is confirmed at run time.
    ``hoist_l`` / ``hoist_r``
        The corresponding input is loop-invariant across repeated
        executions (a network input, not an intermediate), so its
        linearization/tiled tables can be hoisted out of the execution
        loop by :meth:`repro.network.executor.NetworkExecutor.prepare`.
    """

    i: int
    j: int
    sub_l: str
    sub_r: str
    sub_out: str
    kind: str  # "contract" | "outer"
    pairs: tuple[tuple[int, int], ...]
    est_nnz: float
    est_cost: float  # modeled seconds through machine/cost_model
    accumulator: str  # Algorithm 7's choice ("" for outer steps)
    tile: int
    guard: str = ""  # "ok" | "dnf" from the kernel guards ("" for outer steps)
    cse_of: int = -1
    dead: bool = False
    hoist_l: bool = False
    hoist_r: bool = False

    @property
    def subscripts(self) -> str:
        """The step as a standalone einsum string."""
        return f"{self.sub_l},{self.sub_r}->{self.sub_out}"

    @property
    def annotations(self) -> str:
        """Compact render of the pass annotations (``""`` when bare)."""
        parts = []
        if self.dead:
            parts.append("dead")
        if self.cse_of >= 0:
            parts.append(f"cse->{self.cse_of}")
        hoists = "".join(
            side for side, on in (("L", self.hoist_l), ("R", self.hoist_r))
            if on
        )
        if hoists:
            parts.append(f"hoist:{hoists}")
        return ",".join(parts)


@dataclass
class NetworkPlan:
    """A frozen, explainable contraction path for one network.

    ``input_subs`` records each operand's subscript *after* the upfront
    marginalization of dead single indices — the executor reduces any
    operand whose live subscript differs before stepping.

    ``passes`` records the annotations set by
    :func:`~repro.network.dataflow.annotate_plan` (``("cse", "dead",
    "hoist")``, or empty on a bare plan); ``zero_operands`` is the
    dead-step premise — operand positions declared empty
    (``nnz == 0``).  The executor re-checks the premise
    against the live tensors before honoring any ``dead`` annotation.
    """

    signature_key: str
    subscripts: str
    output: str
    optimizer: str
    machine_name: str
    input_subs: tuple[str, ...]
    steps: tuple[PlanStep, ...]
    est_total_cost: float
    est_peak_nnz: float
    final_sub: str
    passes: tuple[str, ...] = ()
    zero_operands: tuple[int, ...] = ()

    @property
    def path(self) -> list[tuple[int, int]]:
        """The bare ``(i, j)`` pair list (``numpy.einsum_path`` style)."""
        return [(s.i, s.j) for s in self.steps]

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    # -- explainability -------------------------------------------------

    def explain(self) -> str:
        """Human-readable step table for ``repro network --explain``."""
        lines = [
            f"network plan: {self.subscripts}",
            f"  optimizer={self.optimizer}, machine={self.machine_name}, "
            f"modeled cost {self.est_total_cost:.3e}s, "
            f"peak intermediate ~{self.est_peak_nnz:.3g} nnz",
        ]
        reduced = [
            f"{k}:{orig}->{red}"
            for k, (orig, red) in enumerate(
                zip(self.subscripts.split("->")[0].split(","), self.input_subs)
            )
            if orig != red
        ]
        if reduced:
            lines.append("  pre-reduced operands: " + ", ".join(reduced))
        if self.passes:
            lines.append("  passes applied: " + ", ".join(self.passes))
        for k, s in enumerate(self.steps):
            acc = f"{s.accumulator}/T{s.tile}" if s.kind == "contract" else "outer"
            notes = s.annotations
            lines.append(
                f"  step {k}: ({s.i},{s.j})  {s.subscripts:<24} "
                f"[{acc}]  ~{s.est_nnz:.3g} nnz, {s.est_cost:.3e}s"
                + (f", guard {s.guard}" if s.guard else "")
                + (f"  <{notes}>" if notes else "")
            )
        if not self.steps:
            lines.append("  (single operand: reduce/permute only)")
        return "\n".join(lines)

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        """JSON-friendly dict (round-trips through :meth:`from_json`)."""
        payload = asdict(self)
        payload["version"] = _FORMAT_VERSION
        payload["steps"] = [asdict(s) for s in self.steps]
        return payload

    @classmethod
    def from_json(cls, payload: dict) -> "NetworkPlan":
        version = payload.get("version", _FORMAT_VERSION)
        if version != _FORMAT_VERSION:
            raise PlanError(f"unsupported network-plan version {version!r}")
        steps = tuple(
            PlanStep(
                i=int(s["i"]),
                j=int(s["j"]),
                sub_l=s["sub_l"],
                sub_r=s["sub_r"],
                sub_out=s["sub_out"],
                kind=s["kind"],
                pairs=tuple((int(a), int(b)) for a, b in s["pairs"]),
                est_nnz=float(s["est_nnz"]),
                est_cost=float(s["est_cost"]),
                accumulator=s["accumulator"],
                tile=int(s["tile"]),
                guard=s.get("guard", ""),
                cse_of=int(s.get("cse_of", -1)),
                dead=bool(s.get("dead", False)),
                hoist_l=bool(s.get("hoist_l", False)),
                hoist_r=bool(s.get("hoist_r", False)),
            )
            for s in payload["steps"]
        )
        return cls(
            signature_key=payload["signature_key"],
            subscripts=payload["subscripts"],
            output=payload["output"],
            optimizer=payload["optimizer"],
            machine_name=payload["machine_name"],
            input_subs=tuple(payload["input_subs"]),
            steps=steps,
            est_total_cost=float(payload["est_total_cost"]),
            est_peak_nnz=float(payload["est_peak_nnz"]),
            final_sub=payload["final_sub"],
            passes=tuple(payload.get("passes", ())),
            zero_operands=tuple(
                int(k) for k in payload.get("zero_operands", ())
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkPlan({self.subscripts!r}, optimizer={self.optimizer!r}, "
            f"steps={self.path})"
        )
