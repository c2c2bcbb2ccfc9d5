"""Request/response vocabulary of the contraction service.

A :class:`Request` is one unit of client work: a *pairwise*
contraction (two COO operands plus contracted mode pairs — the
:class:`~repro.runtime.ContractionRuntime` shape), a *network*
contraction (einsum subscripts plus N operands — the
:class:`~repro.network.NetworkExecutor` shape), or a *stream*
operation (register / delta / query / invalidate against a named
evolving contraction owned by an
:class:`~repro.streaming.IncrementalEngine`).  Requests optionally
carry a relative **deadline** (seconds of budget from admission) and an
integer **priority** (higher drains first).

Stream requests key their affinity on the *stream name* rather than a
structural signature: under the sharded front end every operation on
one stream consistently hashes to the same shard, so exactly one
process owns that stream's incremental state.

Submitting a request yields a :class:`Ticket` — a small future the
service resolves exactly once with a :class:`Response`.  Every response
reaches one of the terminal statuses in :data:`TERMINAL_STATUSES`;
``shed`` and ``timeout`` responses carry no result, ``degraded``
responses carry a result computed down the degradation ladder (see
:mod:`repro.serve.service`), and ``failed`` wraps an execution error.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigError, SchedulerError
from repro.machine.specs import MachineSpec
from repro.tensors.coo import COOTensor

__all__ = [
    "PAIRWISE",
    "NETWORK",
    "STREAM",
    "STREAM_OPS",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "STATUS_FAILED",
    "TERMINAL_STATUSES",
    "Request",
    "Response",
    "Ticket",
    "Job",
]

#: Request kinds.
PAIRWISE = "pairwise"
NETWORK = "network"
STREAM = "stream"

#: Operations a stream request may carry.
STREAM_OPS = ("register", "delta", "query", "invalidate")

#: Terminal response statuses.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_SHED = "shed"
STATUS_TIMEOUT = "timeout"
STATUS_FAILED = "failed"

TERMINAL_STATUSES = (
    STATUS_OK, STATUS_DEGRADED, STATUS_SHED, STATUS_TIMEOUT, STATUS_FAILED,
)


@dataclass(frozen=True)
class Request:
    """One client contraction request (build via :meth:`pairwise` /
    :meth:`network`).

    ``deadline_s`` is a *relative* budget: the service stamps the
    admission time and enforces ``admission + deadline_s`` between
    pipeline stages.  ``priority`` orders draining (higher first; FIFO
    within a priority class) and protects against ``shed_oldest``
    eviction, which victimizes the lowest class first.
    """

    kind: str
    name: str = ""
    priority: int = 0
    deadline_s: float | None = None
    # pairwise fields
    left: COOTensor | None = None
    right: COOTensor | None = None
    pairs: tuple[tuple[int, int], ...] = ()
    # network fields
    subscripts: str = ""
    operands: tuple[COOTensor, ...] = ()
    # stream fields (the delta payload is a repro.streaming.DeltaBatch;
    # typed loosely to keep this module import-light)
    stream_name: str = ""
    stream_op: str = ""
    delta: object | None = None
    side: str = "left"

    @classmethod
    def pairwise(
        cls,
        left: COOTensor,
        right: COOTensor,
        pairs: Sequence[tuple[int, int]],
        *,
        name: str = "",
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> "Request":
        """A two-operand contraction request (``contract()`` shape)."""
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        return cls(
            kind=PAIRWISE,
            name=name,
            priority=int(priority),
            deadline_s=deadline_s,
            left=left,
            right=right,
            pairs=tuple((int(a), int(b)) for a, b in pairs),
        )

    @classmethod
    def network(
        cls,
        subscripts: str,
        *operands: COOTensor,
        name: str = "",
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> "Request":
        """A multi-operand einsum request (``einsum()`` shape)."""
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        if not operands:
            raise ConfigError("a network request needs at least one operand")
        return cls(
            kind=NETWORK,
            name=name,
            priority=int(priority),
            deadline_s=deadline_s,
            subscripts=subscripts,
            operands=tuple(operands),
        )

    @classmethod
    def stream(
        cls,
        stream_name: str,
        op: str,
        *,
        left: COOTensor | None = None,
        right: COOTensor | None = None,
        pairs: Sequence[tuple[int, int]] = (),
        delta=None,
        side: str = "left",
        name: str = "",
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> "Request":
        """A streaming-tensor request against a named evolving stream.

        ``op`` selects the operation:

        * ``"register"`` — establish the stream: contract ``left`` and
          ``right`` over ``pairs`` and retain the incremental state;
        * ``"delta"`` — apply a :class:`~repro.streaming.DeltaBatch`
          (``delta``) to the ``side`` operand and return the refreshed
          output (patched incrementally when cheap enough);
        * ``"query"`` — return the current output without mutating;
        * ``"invalidate"`` — drop the stream's state and caches.
        """
        if op not in STREAM_OPS:
            raise ConfigError(
                f"stream op must be one of {STREAM_OPS}, got {op!r}"
            )
        if not stream_name:
            raise ConfigError("a stream request needs a stream_name")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        if op == "register" and (left is None or right is None or not pairs):
            raise ConfigError(
                "stream register needs left, right and contracted pairs"
            )
        if op == "delta" and delta is None:
            raise ConfigError("stream delta needs a DeltaBatch payload")
        if side not in ("left", "right"):
            raise ConfigError(f"side must be 'left' or 'right', got {side!r}")
        return cls(
            kind=STREAM,
            name=name or stream_name,
            priority=int(priority),
            deadline_s=deadline_s,
            left=left,
            right=right,
            pairs=tuple((int(a), int(b)) for a, b in pairs),
            stream_name=stream_name,
            stream_op=op,
            delta=delta,
            side=side,
        )

    def affinity_key(self, machine: MachineSpec) -> str:
        """The structural signature key micro-batching groups by.

        Pairwise requests use the runtime's
        :class:`~repro.runtime.signature.ProblemSignature`; network
        requests use the :class:`~repro.network.plan.NetworkSignature`.
        Two requests sharing a key replay the same cached plan, so
        running them back to back turns the whole group (minus the
        first) into warm-cache work.

        Stream requests key on the *stream name* instead: all
        operations on one stream share a key, so consistent hashing
        pins the stream — its operands, incremental tables and cached
        output — to exactly one shard.
        """
        if self.kind == STREAM:
            return f"stream:{self.stream_name}"
        if self.kind == PAIRWISE:
            from repro.runtime.signature import signature_for

            return signature_for(
                self.left, self.right, self.pairs, machine
            ).key
        from repro.network.ir import TensorNetwork
        from repro.network.plan import NetworkSignature

        network = TensorNetwork.parse(self.subscripts, self.operands)
        return NetworkSignature.for_network(network, machine).key


@dataclass
class Response:
    """Terminal outcome of one request.

    ``timings`` holds per-stage wall-clock seconds (``queue_wait``,
    ``execute``, ``total``); ``degrade_rung`` names which rung of the
    degradation ladder produced a ``degraded`` result (``"cached-plan"``
    replays a warm plan — numerically identical to the full path —
    while ``"cheap-path"`` skips expensive planning entirely).  A
    ``timeout`` response whose work finished just after the deadline
    still carries its (late) result, letting best-effort callers use it.
    """

    name: str
    status: str
    result: COOTensor | None = None
    detail: str = ""
    plan_source: str = ""
    accumulator: str = ""
    tile: int = 0
    degrade_rung: str | None = None
    timings: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True for statuses that delivered a usable result."""
        return self.status in (STATUS_OK, STATUS_DEGRADED)


class Ticket:
    """Single-resolution future handed back by ``submit()``."""

    __slots__ = ("_event", "_response")

    def __init__(self):
        self._event = threading.Event()
        self._response: Response | None = None

    def resolve(self, response: Response) -> None:
        """Deliver the terminal response (first resolution wins)."""
        if self._response is None:
            self._response = response
            self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> Response:
        """Block for the response; :class:`SchedulerError` on wait timeout."""
        if not self._event.wait(timeout):
            raise SchedulerError(
                f"no response within {timeout}s (request still in flight)"
            )
        assert self._response is not None
        return self._response


@dataclass
class Job:
    """A request in flight: admission metadata the service stamps on.

    ``arrival``/``deadline_at`` are :func:`time.monotonic` stamps;
    ``seq`` is the global admission order (ties within a priority class
    break FIFO on it); ``affinity`` is the precomputed signature key.
    """

    request: Request
    ticket: Ticket
    seq: int
    arrival: float
    deadline_at: float | None
    affinity: str

    @property
    def priority(self) -> int:
        return self.request.priority
