"""Leaf operators: table scans, index scans, subquery scans, literal rows."""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.engine.executor.base import PhysicalOperator
from repro.engine.schema import Column, Schema
from repro.engine.table import Table, TableIndex


class SeqScan(PhysicalOperator):
    """Full scan of a heap table, columns qualified by the FROM alias."""

    def __init__(self, table: Table, alias: str):
        self.table = table
        self.alias = alias
        self.schema = table.schema.requalified(alias)

    def _execute(self) -> Iterator[tuple]:
        return self._checked(self.table.rows)

    def describe(self) -> str:
        return f"SeqScan on {self.table.name} as {self.alias}"


class IndexScan(PhysicalOperator):
    """Range scan over a table via a secondary B+tree index.

    The planner emits this when a pushed-down conjunct is a comparison of
    an indexed column against a constant: equality becomes a point lookup,
    range operators become half-open range scans.
    """

    def __init__(self, table: Table, index: TableIndex, alias: str,
                 low: Any = None, high: Any = None,
                 include_low: bool = True, include_high: bool = True):
        self.table = table
        self.index = index
        self.alias = alias
        self.low = low
        self.high = high
        self.include_low = include_low
        self.include_high = include_high
        self.schema = table.schema.requalified(alias)

    def _execute(self) -> Iterator[tuple]:
        return self._checked(map(self.table.rows.__getitem__,
                                 self.index.row_ids(
                                     self.low, self.high,
                                     self.include_low, self.include_high)))

    def describe(self) -> str:
        if self.low == self.high and self.low is not None:
            cond = f"= {self.low!r}"
        else:
            parts = []
            if self.low is not None:
                parts.append(f"{'>=' if self.include_low else '>'} {self.low!r}")
            if self.high is not None:
                parts.append(
                    f"{'<=' if self.include_high else '<'} {self.high!r}"
                )
            cond = " and ".join(parts) or "full"
        return (
            f"IndexScan using {self.index.name} on {self.table.name} "
            f"as {self.alias} ({self.index.column} {cond})"
        )


class SubqueryScan(PhysicalOperator):
    """Wraps a planned sub-select, re-qualifying its output columns."""

    def __init__(self, child: PhysicalOperator, alias: str):
        self.child = child
        self.alias = alias
        self.schema = child.schema.requalified(alias)

    def _execute(self) -> Iterator[tuple]:
        return iter(self.child)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"SubqueryScan as {self.alias}"


class ValuesScan(PhysicalOperator):
    """In-memory literal rows with a given schema.

    A FROM-less SELECT scans one empty row: ``ValuesScan([()], Schema([]))``.
    """

    def __init__(self, rows: List[tuple], schema: Schema):
        self._rows = rows
        self.schema = schema

    def _execute(self) -> Iterator[tuple]:
        return self._checked(self._rows)

    def describe(self) -> str:
        return f"ValuesScan ({len(self._rows)} rows)"
