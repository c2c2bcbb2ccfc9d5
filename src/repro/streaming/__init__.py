"""Streaming tensors: delta ingestion and incremental re-contraction.

Production traffic mutates tensors far more often than it replaces
them.  This package makes sparse tensors *evolving* objects:

* :mod:`repro.streaming.delta` — :class:`DeltaBatch`, canonical
  insert/update/delete batches applied to COO tensors;
* :mod:`repro.streaming.engine` — :class:`IncrementalEngine`, which
  keeps each stream sorted by tile, re-contracts only the tiles a
  delta touched and splices their output rows in, falling back to full
  recompute past a staleness threshold priced through the paper's
  Section 5.1 density model.  Each delta commits whole or not at all.

The serve layer exposes this as the ``stream`` request kind (see
:mod:`repro.serve.request`), with shard affinity by stream name so one
shard owns each stream's state.
"""

from repro.streaming.delta import (
    DELETE,
    INSERT,
    UPDATE,
    DeltaBatch,
)
from repro.streaming.engine import (
    DEFAULT_STALENESS_THRESHOLD,
    IncrementalEngine,
    StreamState,
    StreamStats,
)

__all__ = [
    "DEFAULT_STALENESS_THRESHOLD",
    "DELETE",
    "INSERT",
    "UPDATE",
    "DeltaBatch",
    "IncrementalEngine",
    "StreamState",
    "StreamStats",
]
