"""Incremental (streaming) Similarity Group-By.

The batch operators answer one-shot queries; this package maintains SGB
groups *online* as rows arrive, in micro-batches:

* :class:`StreamingSGBAny` — connected ε-components under point insertion
  (incremental Union-Find + the batch operator's ε-neighbour strategies).
  Order-independent: every snapshot equals the batch operator on the
  ingested point set.
* :class:`StreamingSGBAll` — ε-All clique groups maintained incrementally:
  the batch :class:`~repro.core.sgb_all.SGBAllOperator` itself, read
  through its public ``snapshot()`` / ``stats``.  Snapshot equals the
  batch operator on the same prefix in the same order/seed.
* :class:`MicroBatcher` — configurable-batch ingestion; each flush's
  :class:`StreamStats` delta tags its ``micro_batch`` span.
* :class:`StreamingGroupView` — attaches an engine to a database table so
  INSERT-then-requery reads maintained state instead of recomputing.

The convenience entry point is :func:`repro.sgb_stream`.
"""

from repro.obs.metrics import StreamStats
from repro.streaming.all_engine import StreamingSGBAll
from repro.streaming.any_engine import StreamingSGBAny
from repro.streaming.micro_batch import MicroBatcher
from repro.streaming.view import StreamingGroupView

__all__ = [
    "StreamingSGBAny",
    "StreamingSGBAll",
    "MicroBatcher",
    "StreamingGroupView",
    "StreamStats",
]
