"""Streaming tensors: delta ingestion and incremental re-contraction.

Production traffic mutates tensors far more often than it replaces
them.  This package makes sparse tensors *evolving* objects:

* :mod:`repro.streaming.delta` — :class:`DeltaBatch` (canonical
  insert/update/delete batches, applicable to COO/CSF/HiCOO) and the
  bounded per-tensor :class:`MutationLog`;
* :mod:`repro.streaming.version` — :class:`DependencyTracker`, the
  tile-granular registry of which cached artifacts (tiled tables,
  linearized operands, plan-cache entries, prepared-network pins,
  outputs) depend on which ``(tensor, tile)`` pairs;
* :mod:`repro.streaming.engine` — :class:`IncrementalEngine`, which
  re-contracts only the tiles a delta touched and patches the cached
  output, falling back to full recompute past a staleness threshold
  priced through the paper's Section 5.1 density model.

The serve layer exposes this as the ``stream`` request kind (see
:mod:`repro.serve.request`), with shard affinity by stream name so one
shard owns each tensor's mutation log.
"""

from repro.streaming.delta import (
    DELETE,
    INSERT,
    UPDATE,
    DeltaBatch,
    MutationLog,
    apply_delta,
)
from repro.streaming.engine import (
    DEFAULT_STALENESS_THRESHOLD,
    IncrementalEngine,
    StreamState,
    StreamStats,
)
from repro.streaming.version import (
    Artifact,
    DependencyTracker,
    TensorVersion,
)

__all__ = [
    "DEFAULT_STALENESS_THRESHOLD",
    "DELETE",
    "INSERT",
    "UPDATE",
    "Artifact",
    "DeltaBatch",
    "DependencyTracker",
    "IncrementalEngine",
    "MutationLog",
    "StreamState",
    "StreamStats",
    "TensorVersion",
    "apply_delta",
]
