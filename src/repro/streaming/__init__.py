"""Incremental (streaming) Similarity Group-By.

The batch operators answer one-shot queries; this package maintains SGB
groups *online* as rows arrive, in micro-batches.  A stream has three
layers, and :func:`repro.sgb_stream` is the one place it is built:

* :class:`StreamingGroupView` — optional: attaches a stream to a database
  table so INSERT-then-requery reads maintained state instead of
  recomputing.
* :class:`MicroBatcher` — the stream handle and its one input gate:
  validates each row once, buffers it, owns the closed state, and flushes
  a batch at a time; each flush's :class:`StreamStats` delta tags its
  ``micro_batch`` span.
* the engine, driven through the batch operators' protocol
  (``add_many`` / ``snapshot`` / ``finalize`` / ``stats``): for SGB-Any
  the incremental loop in :mod:`repro.streaming.any_engine` (connected
  ε-components; every snapshot equals the batch operator on the ingested
  point set), for SGB-All :class:`~repro.core.sgb_all.SGBAllOperator`
  itself (every snapshot equals the batch operator on the same prefix in
  the same order and seed).
"""

from repro.obs.metrics import StreamStats
from repro.streaming.micro_batch import MicroBatcher
from repro.streaming.view import StreamingGroupView

__all__ = [
    "MicroBatcher",
    "StreamingGroupView",
    "StreamStats",
]
