"""The stream handle: micro-batch ingestion in front of an SGB engine.

A stream is a :class:`MicroBatcher` over an incremental operator —
:class:`~repro.streaming.any_engine.StreamingSGBAny` for SGB-Any,
:class:`~repro.core.sgb_all.SGBAllOperator` itself for SGB-All — built by
:func:`repro.sgb_stream`.  The batcher is the stream's one input gate
(each row is validated here, once, when it is handed over) and owns its
closed state; the engine trusts it.

Rows are buffered and flushed into the wrapped engine in configurable
batches; each flush is timed into the engine's ``wall_time_s``, and its
counter delta goes where something reads it — onto the ``micro_batch``
span.  The batcher itself keeps a flush count, not a history, so its
size does not grow with the stream.  Batching changes *when* work happens,
never *what* the result is: ``snapshot()`` and ``result()`` flush the
buffer first, so they always reflect every row handed to the batcher.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

from repro import kernels
from repro.core.api import Point, validate_point
from repro.core.result import GroupingResult
from repro.errors import (
    InvalidCoordinateError,
    InvalidParameterError,
    StreamStateError,
)
from repro.obs.metrics import StreamStats
from repro.obs.trace import Tracer, maybe_span


class MicroBatcher:
    """Buffers rows and feeds an incremental SGB engine one batch at a time.

    Parameters
    ----------
    engine:
        Anything with the batch operators' protocol: ``add_many`` (points
        in order; one it refuses leaves it as it was), ``snapshot``,
        ``finalize``, ``n_points`` and a ``stats`` counter struct.
    batch_size:
        Rows per flush; ``1`` degenerates to point-at-a-time ingestion and
        a value >= the stream length to one giant batch.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each flush emits one
        ``micro_batch`` span tagged with the batch's StreamStats delta.
        Reassignable at any time (the Database swaps it on ``\\trace``
        toggles).
    """

    def __init__(self, engine, batch_size: int = 64,
                 tracer: Optional[Tracer] = None):
        if batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.engine = engine
        self.batch_size = int(batch_size)
        self.tracer = tracer
        self._pending: List[Point] = []
        self._dim: Optional[int] = None
        #: Set by :meth:`result`; the stream takes no rows after it.
        self.closed = False
        #: Flushes so far (the ``batch=`` attribute of the next span).
        self.n_batches = 0
        #: Upstream rows dropped for NULL grouping attributes (reported
        #: by the feeding view through :meth:`note_skipped_null`); the
        #: portion since the last flush tags the next ``micro_batch``
        #: span, so per-batch span attrs account for every upstream row.
        self.rows_skipped_null = 0
        self._skipped_unflushed = 0

    # ------------------------------------------------------------------
    @property
    def stats(self) -> StreamStats:
        """The engine's cumulative counters (pending rows not included)."""
        return self.engine.stats

    @property
    def n_pending(self) -> int:
        return len(self._pending)

    @property
    def n_points(self) -> int:
        """Rows handed to the batcher (ingested + still buffered)."""
        return self.engine.n_points + len(self._pending)

    # ------------------------------------------------------------------
    def check_open(self) -> None:
        """Raise :class:`StreamStateError` once ``result()`` closed the
        stream."""
        if self.closed:
            raise StreamStateError("stream already closed by result()")

    def insert(self, row: Sequence[float]) -> None:
        """Buffer one row; flushes automatically at ``batch_size``.

        Validation is eager: a bad row (non-finite coordinate, wrong
        dimension) or a closed stream fails *this* call, not a later
        flush triggered from ``snapshot()`` — buffering it would defer
        the error to whichever unrelated call happens to flush the batch.
        """
        self.extend([row])

    def extend(self, rows: Iterable[Sequence[float]]) -> None:
        """Buffer many rows, flushing where one ``insert`` per row would.

        Every row is validated before any is buffered, so a bad one
        fails the call and leaves the batcher as it was.  A flush the
        engine fails (see :meth:`flush`) loses only the refused row: the
        rows behind it, this call's included, stay buffered.
        """
        rows = list(rows)
        if not rows:
            return
        self.check_open()
        dim = self._dim
        points = []
        for row in rows:
            pt, dim = validate_point(row, dim)
            points.append(pt)
        self._dim = dim
        taken = 0
        while taken < len(points):
            room = max(self.batch_size - len(self._pending), 1)
            self._pending.extend(points[taken:taken + room])
            taken += room
            if len(self._pending) < self.batch_size:
                return
            try:
                self.flush()
            except InvalidCoordinateError:
                self._pending.extend(points[taken:])
                raise

    def note_skipped_null(self, n: int = 1) -> None:
        """Count an upstream row dropped for a NULL grouping attribute."""
        self.rows_skipped_null += n
        self._skipped_unflushed += n

    def flush(self) -> None:
        """Push buffered rows into the engine as one timed micro-batch.

        The engines ingest row by row and a row they refuse (a finite
        coordinate the ε-sized grid cannot cell, say) leaves them as they
        were, so a failing flush loses exactly that row: the rows before
        it are ingested and reported as a (short) batch, the rows behind
        it go back to the buffer for the next flush, and the engine's
        error propagates.
        """
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        skipped, self._skipped_unflushed = self._skipped_unflushed, 0
        before = self.engine.stats.copy()
        n_before = self.engine.n_points
        with maybe_span(self.tracer, "micro_batch",
                        batch=self.n_batches, size=len(batch),
                        backend=kernels.active_backend(),
                        rows_skipped_null=skipped) as sp:
            start = time.perf_counter()
            try:
                self.engine.add_many(batch)
            finally:
                elapsed = time.perf_counter() - start
                done = self.engine.n_points - n_before
                self._pending = batch[done + 1:]
                self.engine.stats.wall_time_s += elapsed
                self.n_batches += 1
                sp.set(**(self.engine.stats - before).span_attrs())

    # ------------------------------------------------------------------
    def snapshot(self) -> GroupingResult:
        """Flush, then return the engine's current grouping."""
        self.flush()
        return self.engine.snapshot()

    def result(self) -> GroupingResult:
        """Flush, close the stream, and return the final grouping."""
        self.check_open()
        self.flush()
        self.closed = True
        return self.engine.finalize()

    def __repr__(self) -> str:
        engine = self.engine
        return (
            f"MicroBatcher({type(engine).__name__}(eps={engine.eps}, "
            f"metric={engine.metric.name!r}, "
            f"strategy={engine.strategy_name!r}), "
            f"batch_size={self.batch_size}, batches={self.n_batches}, "
            f"pending={len(self._pending)}, points={self.n_points})"
        )
