"""Streaming SGB views over engine tables (the INSERT-then-requery path).

A :class:`StreamingGroupView` attaches a stream (:func:`repro.sgb_stream`)
to a table: existing rows are back-filled through its
:class:`~repro.streaming.micro_batch.MicroBatcher`, and every subsequent
``INSERT`` — SQL or Python API — feeds the engine via the table's insert
listeners.  Re-querying the view is then a snapshot of maintained state
instead of a from-scratch recompute, which is the amortization the
repeated-query literature (e.g. COMPARE, arXiv:2107.11967) motivates.

Rows become points by the SQL executor's own column rule
(:func:`~repro.engine.executor.sgb.grouping_points`, once per INSERT): a
NULL grouping attribute skips the row, DATE attributes map to ordinal
days — so a view over a date column groups "within ε days" — and a
non-numeric or non-finite value fails the whole ``INSERT`` with the
batch path's typed error before the table appends any of its rows.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.core.api import sgb_stream
from repro.core.result import GroupingResult
from repro.engine.executor.sgb import Point, grouping_points
from repro.errors import InvalidCoordinateError, InvalidParameterError
from repro.obs.metrics import StreamStats


class StreamingGroupView:
    """An incrementally-maintained similarity grouping over a table.

    Parameters
    ----------
    name:
        View name (unique per database).
    table:
        The :class:`~repro.engine.table.Table` to follow.
    columns:
        Numeric (or DATE) grouping columns.
    mode:
        ``"any"`` or ``"all"`` — which SGB semantics to maintain.
    eps / metric / batch_size / engine_options:
        Forwarded to :func:`repro.sgb_stream`.
    metrics / tracer:
        Observability collectors handed to the micro-batcher (the owning
        Database passes its cumulative bag and, when tracing, its tracer).
    """

    def __init__(
        self,
        name: str,
        table,
        columns: Sequence[str],
        mode: str = "any",
        *,
        eps: float,
        metric: str = "l2",
        batch_size: int = 32,
        metrics=None,
        tracer=None,
        **engine_options,
    ):
        if not columns:
            raise InvalidParameterError(
                "a streaming view needs at least one grouping column"
            )
        self.name = name.lower()
        self.table = table
        self.columns = [c.lower() for c in columns]
        self.mode = mode.strip().lower()
        self._col_idx = [table.schema.resolve(c) for c in self.columns]
        self.batcher = sgb_stream(mode, eps=eps, metric=metric,
                                  batch_size=batch_size, **engine_options)
        self.batcher.metrics = metrics
        self.batcher.tracer = tracer
        self.eps = self.batcher.engine.eps
        self._row_ids: List[int] = []  # table positions of ingested rows
        self._attached = False
        self._on_insert(table.rows, 0)()
        table.add_insert_listener(self._on_insert)
        self._attached = True

    # ------------------------------------------------------------------
    def _on_insert(self, rows: Sequence[Tuple], first_row_id: int):
        """The table's insert listener: turn a batch into points before
        it is appended (a bad value refuses the whole batch) and return
        the step that ingests them after."""
        points = grouping_points(
            [[row[i] for row in rows] for i in self._col_idx])
        self.batcher.check_open()
        return partial(self._ingest, points, first_row_id)

    def _ingest(self, points: List[Optional[Point]], first_row_id: int) -> None:
        # The batch's NULL skips are noted before its points are buffered,
        # so they tag the first micro_batch span the batch flushes.
        kept = [p for p in points if p is not None]
        skipped = len(points) - len(kept)
        if skipped:
            self.batcher.note_skipped_null(skipped)
        self._row_ids.extend(row_id for row_id, p in
                             enumerate(points, first_row_id) if p is not None)
        self._flushing(self.batcher.extend, kept)

    def _flushing(self, call, *args):
        """Run a batcher call that may flush, keeping ``_row_ids`` aligned.

        Every buffered point is finite and of the view's dimension, so an
        :class:`InvalidCoordinateError` here is the engine refusing a row
        at flush (a value the ε-sized grid cannot cell).  ``flush`` stops
        at that row and keeps the ones behind it, so it is the row that
        would have become the engine's next point: drop its id, so later
        ids do not shift.
        """
        try:
            return call(*args)
        except InvalidCoordinateError:
            del self._row_ids[self.batcher.engine.n_points]
            raise

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Rows ingested (buffered ones included, NULL-skipped excluded)."""
        return self.batcher.n_points

    @property
    def n_skipped(self) -> int:
        """Rows skipped for a NULL grouping attribute."""
        return self.batcher.rows_skipped_null

    @property
    def stats(self) -> StreamStats:
        return self.batcher.stats

    def snapshot(self) -> GroupingResult:
        """Current grouping over the ingested rows."""
        return self._flushing(self.batcher.snapshot)

    def n_groups(self) -> int:
        return self.snapshot().n_groups

    def group_sizes(self) -> List[int]:
        return self.snapshot().group_sizes()

    def group_rows(self) -> List[List[int]]:
        """Table row positions per group (largest group first)."""
        snap = self.snapshot()
        groups = sorted(
            snap.groups().values(), key=lambda ids: (-len(ids), ids)
        )
        return [[self._row_ids[i] for i in ids] for ids in groups]

    def detach(self) -> None:
        """Stop following table inserts (the view keeps its last state)."""
        if self._attached:
            self.table.remove_insert_listener(self._on_insert)
            self._attached = False

    def __repr__(self) -> str:
        return (
            f"StreamingGroupView({self.name!r}, table={self.table.name!r}, "
            f"columns={self.columns}, mode={self.mode!r}, eps={self.eps}, "
            f"points={self.n_points})"
        )
