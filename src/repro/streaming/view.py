"""Streaming SGB views over engine tables (the INSERT-then-requery path).

A :class:`StreamingGroupView` attaches an incremental SGB engine to a
table: existing rows are back-filled through a
:class:`~repro.streaming.micro_batch.MicroBatcher`, and every subsequent
``INSERT`` — SQL or Python API — feeds the engine via the table's insert
listeners.  Re-querying the view is then a snapshot of maintained state
instead of a from-scratch recompute, which is the amortization the
repeated-query literature (e.g. COMPARE, arXiv:2107.11967) motivates.

Rows with a NULL grouping attribute are skipped, mirroring the SGB
executor node's treatment of NULLs; DATE attributes map to ordinal days
exactly like the batch SQL path, so a view over a date column groups
"within ε days".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.result import GroupingResult
from repro.engine.executor.sgb import _coordinate
from repro.errors import ExecutionError, InvalidParameterError
from repro.streaming.all_engine import StreamingSGBAll
from repro.streaming.any_engine import StreamingSGBAny
from repro.streaming.micro_batch import MicroBatcher
from repro.streaming.stats import StreamStats


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
        Forwarded to the streaming engine and micro-batcher.
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
        if self.mode == "any":
            engine = StreamingSGBAny(eps=eps, metric=metric, **engine_options)
        elif self.mode == "all":
            engine = StreamingSGBAll(eps=eps, metric=metric, **engine_options)
        else:
            raise InvalidParameterError(
                f"unknown streaming mode {mode!r}; expected 'any' or 'all'"
            )
        self.eps = engine.eps
        self.batcher = MicroBatcher(engine, batch_size=batch_size,
                                    metrics=metrics, tracer=tracer)
        self._row_ids: List[int] = []  # table positions of ingested rows
        self._skipped = 0
        self._attached = False
        for row_id, row in enumerate(table.rows):
            self._on_insert(row, row_id)
        table.add_insert_listener(self._on_insert)
        self._attached = True

    # ------------------------------------------------------------------
    def _on_insert(self, row: Tuple, row_id: int) -> None:
        coords = tuple(row[i] for i in self._col_idx)
        if any(c is None for c in coords):
            self._skipped += 1
            self.batcher.note_skipped_null()
            return
        try:
            point = tuple(_coordinate(c) for c in coords)
        except (TypeError, ValueError):
            raise ExecutionError(
                f"streaming view {self.name!r}: grouping attributes must be "
                f"numeric, got {coords!r}"
            ) from None
        # Record the row only once the batcher accepted the point: a
        # rejected row (NaN coordinate, ...) must not shift later ids.
        self.batcher.insert(point)
        self._row_ids.append(row_id)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        """Rows ingested (buffered ones included, NULL-skipped excluded)."""
        return self.batcher.n_points

    @property
    def n_skipped(self) -> int:
        return self._skipped

    @property
    def stats(self) -> StreamStats:
        return self.batcher.stats

    def snapshot(self) -> GroupingResult:
        """Current grouping over the ingested rows."""
        return self.batcher.snapshot()

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
