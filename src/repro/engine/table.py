"""Heap tables: an in-memory row store with schema validation,
secondary B+tree indexes, and cached ANALYZE statistics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine import types as T
from repro.engine.schema import Column, Schema
from repro.errors import CatalogError, InvalidParameterError, ReproError
from repro.index.btree import BPlusTree

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.stats.collect import TableStats

#: A cached statistics snapshot is stale once the row count has drifted
#: by more than this fraction (and at least this many rows) since the
#: last ANALYZE.
_STALENESS_FRACTION = 0.2
_STALENESS_MIN_ROWS = 16


class TableIndex:
    """A secondary index: B+tree from column value to row position.

    NULLs are not indexed; the planner only routes predicates to an index
    when NULL rows could not match anyway.
    """

    def __init__(self, name: str, table: "Table", column: str):
        self.name = name.lower()
        self.table = table
        self.column = column.lower()
        self.column_index = table.schema.resolve(self.column)
        self.tree = BPlusTree()
        for row_id, row in enumerate(table.rows):
            self.note_insert(row, row_id)

    def note_insert(self, row: Tuple[Any, ...], row_id: int) -> None:
        key = row[self.column_index]
        if key is not None:
            self.tree.insert(key, row_id)

    def row_ids(self, low: Any = None, high: Any = None,
                include_low: bool = True, include_high: bool = True):
        return self.tree.range(low, high, include_low, include_high)

    def __repr__(self) -> str:
        return f"TableIndex({self.name!r} on {self.table.name}.{self.column})"


class Table:
    """A named, schema-validated collection of rows.

    Rows are plain tuples in column order.  Inserts coerce values to the
    declared column types (so ``"1995-01-01"`` lands as a ``date`` in a DATE
    column) and reject rows of the wrong arity.
    """

    def __init__(self, name: str, columns: Sequence[Tuple[str, str]]):
        if not columns:
            raise InvalidParameterError(f"table {name!r} needs at least one column")
        seen = set()
        cols: List[Column] = []
        for col_name, col_type in columns:
            lowered = col_name.lower()
            if lowered in seen:
                raise InvalidParameterError(
                    f"duplicate column {col_name!r} in table {name!r}"
                )
            seen.add(lowered)
            cols.append(Column(lowered, T.normalize_type(col_type), name.lower()))
        self.name = name.lower()
        self.schema = Schema(cols)
        self.rows: List[Tuple[Any, ...]] = []
        self.indexes: Dict[str, TableIndex] = {}
        self._insert_listeners: List[Any] = []
        #: Cached ANALYZE statistics (see :mod:`repro.stats.collect`);
        #: None until the first :meth:`analyze` / :meth:`active_stats`.
        self.stats: "Optional[TableStats]" = None

    def __len__(self) -> int:
        return len(self.rows)

    def insert(self, row: Sequence[Any]) -> None:
        self.append_rows([row])

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> int:
        """Append ``rows`` as one batch, all or nothing; returns the count.

        Every row is checked and coerced, and every insert listener
        validates the batch, before anything is appended: a bad row
        raises and leaves the table, its indexes and its listeners as
        they were.  Then the rows are appended, the indexes updated and
        each listener's commit step run once for the whole batch.
        """
        width = len(self.schema)
        types = [col.type for col in self.schema]
        coerce = T.coerce
        coerced: List[Tuple[Any, ...]] = []
        for row in rows:
            if len(row) != width:
                raise InvalidParameterError(
                    f"table {self.name!r} expects {width} values, "
                    f"got {len(row)}"
                )
            coerced.append(tuple(map(coerce, row, types)))
        if not coerced:
            return 0
        first = len(self.rows)
        commits = [listener(coerced, first)
                   for listener in self._insert_listeners]
        self.rows.extend(coerced)
        for index in self.indexes.values():
            for row_id, row in enumerate(coerced, first):
                index.note_insert(row, row_id)
        # A commit step raises only after ingesting the batch (a stream
        # view's engine refusing a point at flush), so every listener
        # still gets its commit before the first such error propagates.
        failed: Optional[ReproError] = None
        for commit in commits:
            try:
                commit()
            except ReproError as exc:
                failed = failed or exc
        if failed is not None:
            raise failed
        return len(coerced)

    # ------------------------------------------------------------------
    # insert listeners (streaming views subscribe to new rows)
    # ------------------------------------------------------------------
    def add_insert_listener(self, listener) -> None:
        """Register ``listener(rows, first_row_id)`` for appended batches.

        It is called once per batch, before the rows are appended, with
        the coerced rows and the position the first will get.  It raises
        to refuse the batch, or returns a no-argument commit step that
        the table calls once the rows are in.
        """
        self._insert_listeners.append(listener)

    def remove_insert_listener(self, listener) -> None:
        """Unregister a listener (no-op if it was never registered)."""
        try:
            self._insert_listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # secondary indexes
    # ------------------------------------------------------------------
    def create_index(self, name: str, column: str) -> TableIndex:
        key = name.lower()
        if key in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        index = TableIndex(key, self, column)
        self.indexes[key] = index
        return index

    def drop_index(self, name: str) -> None:
        try:
            del self.indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist") from None

    def index_on(self, column: str) -> Optional[TableIndex]:
        """Any index covering ``column`` (first created wins)."""
        column = column.lower()
        for index in self.indexes.values():
            if index.column == column:
                return index
        return None

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = self.append_rows(list(rows))
        # Auto-analyze on bulk load: if the batch pushed previously
        # collected statistics past staleness, refresh them now so the
        # next query plans against the new reality instead of paying the
        # refresh at plan time.
        if count and self.stats is not None and self._stats_stale():
            self.analyze()
        return count

    def truncate(self) -> None:
        self.rows.clear()
        self.stats = None
        # rebuild (now empty) indexes rather than leaving stale row ids
        for name, index in list(self.indexes.items()):
            self.indexes[name] = TableIndex(name, self, index.column)

    # ------------------------------------------------------------------
    # ANALYZE statistics
    # ------------------------------------------------------------------
    def analyze(self) -> "TableStats":
        """Collect and cache fresh statistics for this table."""
        from repro.stats.collect import analyze_table

        self.stats = analyze_table(self)
        return self.stats

    def _stats_stale(self) -> bool:
        if self.stats is None:
            return True
        drift = abs(len(self.rows) - self.stats.row_count)
        threshold = max(
            _STALENESS_MIN_ROWS, int(self.stats.row_count * _STALENESS_FRACTION)
        )
        return drift > threshold

    def active_stats(self) -> "Optional[TableStats]":
        """Current statistics, refreshed transparently when stale.

        This is the planner's entry point: estimates always see
        statistics no more than ~20% out of date.  Empty tables report
        an (accurate) empty snapshot rather than None.
        """
        if self.stats is None or self._stats_stale():
            self.analyze()
        return self.stats

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"
