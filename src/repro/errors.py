"""Exception hierarchy for the FaSTCC reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Specific subclasses mark the subsystem that raised
them; benchmark harnesses rely on :class:`WorkspaceLimitError` to
reproduce the paper's ``DNF`` (did-not-finish) entries without actually
exhausting memory.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ShapeError",
    "FormatError",
    "CapacityError",
    "PlanError",
    "ConfigError",
    "WorkspaceLimitError",
    "SchedulerError",
    "BackendError",
    "StreamError",
    "ConfigWarning",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """Tensor shapes or mode specifications are inconsistent."""


class FormatError(ReproError, ValueError):
    """A sparse tensor file or in-memory representation is malformed."""


class CapacityError(ReproError, RuntimeError):
    """A fixed-capacity structure (hash table, pool chunk) overflowed."""


class PlanError(ReproError, ValueError):
    """A contraction plan could not be constructed or is invalid."""


class WorkspaceLimitError(ReproError, MemoryError):
    """A dense workspace would exceed the configured memory guard.

    The paper reports ``DNF`` for the NIPS mode-2 contraction with a dense
    accumulator (Table 3); this error is the mechanism by which the
    reproduction detects and reports that case instead of thrashing.
    """


class ConfigError(ReproError, ValueError):
    """An argument selecting a mode, policy, or parameter is invalid.

    Covers bad enumeration values (``method``, ``accumulator``,
    ``schedule`` …) and out-of-range configuration numbers; kept a
    :class:`ValueError` subclass so pre-existing callers that caught
    ``ValueError`` keep working.
    """


class SchedulerError(ReproError, RuntimeError):
    """The task queue or scheduling simulator was misused."""


class BackendError(ReproError, RuntimeError):
    """A kernel backend is unknown or unavailable on this host.

    Raised by :mod:`repro.backends.registry` when an explicitly
    requested backend fails feature detection (e.g. ``scipy`` without
    scipy installed); the message carries the detection reason so
    callers — and the test harness's skip messages — can surface it.
    """


class StreamError(ReproError, RuntimeError):
    """The :mod:`repro.streaming` subsystem was misused.

    Covers unknown or doubly registered stream names and deltas
    applied to tensors they were not built for.
    """


class ConfigWarning(UserWarning):
    """A configuration is accepted but will misbehave where it runs.

    Emitted with :func:`warnings.warn` when a serving config is built;
    the message starts with its ``FSTC`` code (``"FSTC303: ..."``), as
    the refusals raised with :class:`ConfigError` do.
    """
