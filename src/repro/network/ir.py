"""Tensor-network intermediate representation (hypergraph form).

A multi-operand einsum request is a *hypergraph*: operands are nodes
and each index is a hyperedge connecting the operands it appears in
(plus, possibly, the output).  Everything the planner needs — extents,
declared nonzero counts, connectivity, which indices are contracted
versus kept versus summed out — lives here, decoupled from any concrete
:class:`~repro.tensors.coo.COOTensor` so that plans can be built from
declared metadata alone (the :func:`repro.core.expression` compile-ahead
path and the ``repro network --explain`` static path).

Subscript semantics (the tensor-network subset of einsum):

* every index appears in exactly one or two operands;
* an index in two operands and absent from the output is contracted;
* an index in one operand and absent from the output is summed out;
* an index in the output appears in exactly one operand (no
  element-wise/Hadamard sharing, no traces, no broadcasting).

Disconnected networks are legal: components are planned independently
and combined with explicit outer products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import PlanError, ShapeError

__all__ = [
    "OperandMeta",
    "TensorNetwork",
    "parse_subscripts",
    "subscript_counts",
]


def parse_subscripts(subscripts: str, n_operands: int) -> tuple[list[str], str]:
    """Split and validate an einsum subscript string.

    Returns ``(input_subscripts, output_subscript)``.  The output part
    is mandatory (no implicit mode): sparse outputs need an explicit
    mode order.
    """
    if "->" not in subscripts:
        raise PlanError(
            "explicit output subscripts are required, e.g. 'ij,jk->ik'"
        )
    lhs, out = subscripts.replace(" ", "").split("->")
    inputs = lhs.split(",")
    if len(inputs) != n_operands:
        raise PlanError(
            f"subscripts name {len(inputs)} operands but {n_operands} were given"
        )
    for sub in inputs:
        if not sub.isalpha():
            raise PlanError(f"subscripts must be letters, got {sub!r}")
        if len(set(sub)) != len(sub):
            raise PlanError(f"repeated index within one operand (trace) "
                            f"is unsupported: {sub!r}")
    if not (out.isalpha() or out == ""):
        raise PlanError(f"output subscripts must be letters, got {out!r}")
    if len(set(out)) != len(out):
        raise PlanError(f"repeated output index: {out!r}")

    counts = subscript_counts(inputs)
    for ch, n in counts.items():
        if n > 2:
            raise PlanError(
                f"index {ch!r} appears in {n} operands; tensor-network "
                "contraction allows at most two"
            )
        if n == 2 and ch in out:
            raise PlanError(
                f"index {ch!r} is shared by two operands AND kept in the "
                "output (Hadamard semantics) — unsupported"
            )
    for ch in out:
        if ch not in counts:
            raise PlanError(f"output index {ch!r} appears in no operand")
    return inputs, out


def subscript_counts(inputs: Sequence[str]) -> dict[str, int]:
    """How many operands each index appears in."""
    counts: dict[str, int] = {}
    for sub in inputs:
        for ch in sub:
            counts[ch] = counts.get(ch, 0) + 1
    return counts


@dataclass(frozen=True)
class OperandMeta:
    """Declared structural metadata of one network operand.

    This is the first-class replacement for the placeholder-tensor hack
    the compile-ahead path used to rely on: a subscript, a shape and a
    declared (expected) nonzero count are everything planning needs.
    """

    subscript: str
    shape: tuple[int, ...]
    nnz: int

    def __post_init__(self):
        if len(self.subscript) != len(self.shape):
            raise ShapeError(
                f"subscript {self.subscript!r} names {len(self.subscript)} "
                f"modes but shape {self.shape} has {len(self.shape)}"
            )
        if any(s < 1 for s in self.shape):
            raise ShapeError(
                f"mode extents must be >= 1, got shape {self.shape}"
            )
        if self.nnz < 0:
            raise ShapeError(f"declared nnz must be >= 0, got {self.nnz}")
        if self.nnz > self.cells:
            raise ShapeError(
                f"declared nnz={self.nnz} exceeds the {self.cells} cells "
                f"of shape {self.shape}"
            )

    @property
    def cells(self) -> int:
        out = 1
        for s in self.shape:
            out *= s
        return out

    @classmethod
    def from_tensor(cls, subscript: str, tensor) -> "OperandMeta":
        """Metadata of a live tensor (``tensor`` needs shape and nnz)."""
        return cls(
            subscript=subscript,
            shape=tuple(int(s) for s in tensor.shape),
            nnz=int(tensor.nnz),
        )

    @classmethod
    def declared(
        cls, subscript: str, shape: Sequence[int], nnz: int | None = None
    ) -> "OperandMeta":
        """Metadata from declared values; ``nnz`` defaults to 1% density."""
        shape_t = tuple(int(s) for s in shape)
        cells = 1
        for s in shape_t:
            cells *= s
        if nnz is None:
            nnz = max(1, int(0.01 * cells))
        return cls(subscript=subscript, shape=shape_t, nnz=int(nnz))


class TensorNetwork:
    """Validated hypergraph of one multi-operand contraction request.

    Attributes
    ----------
    operands:
        One :class:`OperandMeta` per input, in request order.
    output:
        The output subscript string.
    extents:
        Index letter -> extent (validated consistent across operands).
    """

    __slots__ = ("operands", "output", "extents", "_counts")

    def __init__(self, operands: Sequence[OperandMeta], output: str):
        self.operands = tuple(operands)
        self.output = output
        counts = subscript_counts([m.subscript for m in self.operands])
        extents: dict[str, int] = {}
        for k, meta in enumerate(self.operands):
            for m, ch in enumerate(meta.subscript):
                extent = meta.shape[m]
                if ch in extents and extents[ch] != extent:
                    raise ShapeError(
                        f"index {ch!r} has conflicting extents "
                        f"{extents[ch]} and {extent} (operand {k})"
                    )
                extents[ch] = extent
        self.extents = extents
        self._counts = counts

    @classmethod
    def parse(
        cls,
        subscripts: str,
        operands: Sequence,
        *,
        nnz: Sequence[int] | None = None,
    ) -> "TensorNetwork":
        """Build a network from subscripts plus operands or shapes.

        ``operands`` entries may be live tensors (anything with ``shape``
        and ``nnz``), :class:`OperandMeta` instances (their subscript is
        overwritten by the parsed one), or bare shape tuples combined
        with the optional ``nnz`` sequence.
        """
        inputs, out = parse_subscripts(subscripts, len(operands))
        if nnz is not None and len(nnz) != len(operands):
            raise PlanError("need one nnz estimate per operand")
        metas = []
        for k, (sub, op) in enumerate(zip(inputs, operands)):
            declared = None if nnz is None else int(nnz[k])
            if isinstance(op, OperandMeta):
                metas.append(OperandMeta(sub, op.shape, op.nnz))
            elif hasattr(op, "nnz") and hasattr(op, "shape"):
                metas.append(OperandMeta.from_tensor(sub, op))
            else:
                metas.append(OperandMeta.declared(sub, op, declared))
        return cls(metas, out)

    # -- structure queries ----------------------------------------------

    @property
    def n_operands(self) -> int:
        return len(self.operands)

    @property
    def inputs(self) -> list[str]:
        return [m.subscript for m in self.operands]

    def empty_operands(self) -> tuple[int, ...]:
        """Positions of operands declared empty (``nnz == 0``).

        :func:`~repro.network.dataflow.annotate_plan` records these as
        the zero premise of the plan's ``dead`` annotations.
        """
        return tuple(
            k for k, meta in enumerate(self.operands) if meta.nnz == 0
        )

    @property
    def subscripts(self) -> str:
        """The canonical einsum string of this network."""
        return ",".join(self.inputs) + "->" + self.output

    def count(self, index: str) -> int:
        """How many operands the index appears in."""
        return self._counts.get(index, 0)

    @property
    def contracted_indices(self) -> set[str]:
        """Indices shared by two operands (absent from the output)."""
        return {ch for ch, n in self._counts.items() if n == 2}

    @property
    def kept_indices(self) -> set[str]:
        """Indices surviving into the output."""
        return set(self.output)

    @property
    def summed_indices(self) -> set[str]:
        """Single-operand indices absent from the output (marginalized)."""
        return {
            ch for ch, n in self._counts.items()
            if n == 1 and ch not in self.output
        }

    def index_operands(self, index: str) -> tuple[int, ...]:
        """Positions of the operands carrying the index (the hyperedge)."""
        return tuple(
            k for k, m in enumerate(self.operands) if index in m.subscript
        )

    def reduced_inputs(self) -> list[str]:
        """Per-operand subscripts after summing out dead single indices.

        Planning and execution both marginalize single-occurrence
        indices absent from the output *before* any pairwise step (it
        only ever shrinks the operand); this is the shared definition
        of that normalization.
        """
        return [
            "".join(ch for ch in m.subscript if ch not in self.summed_indices)
            for m in self.operands
        ]

    def connected_components(self) -> list[tuple[int, ...]]:
        """Operand groups connected through shared indices, sorted by
        their smallest operand position."""
        n = self.n_operands
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ch, cnt in self._counts.items():
            if cnt == 2:
                a, b = self.index_operands(ch)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
        groups: dict[int, list[int]] = {}
        for k in range(n):
            groups.setdefault(find(k), []).append(k)
        return sorted(tuple(v) for v in groups.values())

    def validate_tensors(self, tensors: Sequence) -> None:
        """Check live tensors against the declared shapes, by position."""
        if len(tensors) != self.n_operands:
            raise PlanError(
                f"network has {self.n_operands} operands, got {len(tensors)}"
            )
        for k, (meta, t) in enumerate(zip(self.operands, tensors)):
            if tuple(t.shape) != meta.shape:
                raise ShapeError(
                    f"operand {k} has shape {tuple(t.shape)} but the "
                    f"network was built for {meta.shape}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TensorNetwork({self.subscripts!r}, n={self.n_operands})"
