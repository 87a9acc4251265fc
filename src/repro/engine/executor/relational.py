"""Row-at-a-time relational operators: filter, project, joins, sort, limit.

A join probe loop turns one input row into many candidates, so it counts
them in line and checks the cancel token at the end of each stride of
candidates (``PhysicalOperator._stride``): the stride starts at one,
doubles up to ``CHECKPOINT_EVERY`` while a stride takes less than
``CHUNK_BUDGET_S``, rows above the join included, and halves otherwise.
However skewed the join, at most a stride of candidates, and about one
budget's time, run past a cancel.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.engine.executor.base import PhysicalOperator
from repro.engine.schema import Column, Schema
from repro.engine.types import ANY, python_type_of
from repro.errors import PlanningError
from repro.geometry.rectangle import Rect, probe_window
from repro.index.rtree import RTree
from repro.sql.ast_nodes import BindContext, ColumnRef, Expr, Literal, bind_tuple


class Filter(PhysicalOperator):
    """Keeps rows for which the predicate evaluates to exactly True."""

    def __init__(self, child: PhysicalOperator, predicate: Expr,
                 ctx_factory: Callable[[Schema], BindContext]):
        self.child = child
        self.schema = child.schema
        self._predicate_expr = predicate
        self._fn = predicate.bind(ctx_factory(child.schema))

    def _execute(self) -> Iterator[tuple]:
        fn = self._fn
        for row in self.child:
            if fn(row) is True:
                yield row

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter ({self._predicate_expr!r})"


class Project(PhysicalOperator):
    """Computes the select list.

    Output column types are propagated where they are knowable — a bare
    column reference keeps its child-schema type, a literal gets the type
    of its value — so schema-compatibility checks above a projection
    (e.g. for UNION branches) have something to compare.  Computed
    expressions stay ``ANY``.
    """

    def __init__(self, child: PhysicalOperator, exprs: Sequence[Expr],
                 names: Sequence[str],
                 ctx_factory: Callable[[Schema], BindContext]):
        self.child = child
        ctx = ctx_factory(child.schema)
        self._exprs = list(exprs)
        self._row = bind_tuple(exprs, ctx)
        self.schema = Schema([
            Column(n, _projected_type(e, child.schema))
            for e, n in zip(exprs, names)
        ])

    def _execute(self) -> Iterator[tuple]:
        return map(self._row, self.child)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project [{', '.join(self.schema.names())}]"


def _projected_type(expr: Expr, child_schema: Schema) -> str:
    if isinstance(expr, ColumnRef):
        idx = child_schema.maybe_resolve(expr.name, expr.qualifier)
        if idx is not None:
            return child_schema.columns[idx].type
        return ANY
    if isinstance(expr, Literal):
        inferred = python_type_of(expr.value)
        return inferred if inferred is not None else ANY
    return ANY


class NestedLoopJoin(PhysicalOperator):
    """Join with an arbitrary (or absent -> cross) condition.

    The right side is materialized once; each left row tries every right
    row.  With ``outer`` set it is a LEFT OUTER join: a left row no right
    row matches is emitted once, its right columns null-extended.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 condition: Optional[Expr],
                 ctx_factory: Callable[[Schema], BindContext],
                 outer: bool = False):
        self.left = left
        self.right = right
        self.outer = outer
        self.schema = left.schema.concat(right.schema)
        self._condition_expr = condition
        self._fn = (
            condition.bind(ctx_factory(self.schema)) if condition is not None
            else None
        )

    def _execute(self) -> Iterator[tuple]:
        right_rows = self.right.rows()
        nulls = (None,) * len(self.right.schema)
        fn = self._fn
        outer = self.outer
        todo = every = 1
        mark = time.perf_counter()
        for lrow in self.left:
            matched = False
            for rrow in right_rows:
                todo -= 1
                if not todo:
                    every, mark = self._stride(every, mark)
                    todo = every
                combined = lrow + rrow
                if fn is None or fn(combined) is True:
                    matched = True
                    yield combined
            if outer and not matched:
                yield lrow + nulls

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        name = "NestedLoopLeftJoin" if self.outer else "NestedLoopJoin"
        cond = f" on {self._condition_expr!r}" if self._condition_expr else ""
        return f"{name}{cond}"


class HashJoin(PhysicalOperator):
    """Equi-join: builds a hash table on the right side, probes with the left.

    ``residual`` holds non-equi conjuncts evaluated on the combined row;
    they are part of the match condition.  NULL keys never match (SQL
    semantics).  With ``outer`` set it is a LEFT OUTER join: a left row
    with no match — a NULL key, no equal key, or every equal key failing
    the residual — is emitted once, its right columns null-extended.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_keys: Sequence[Expr], right_keys: Sequence[Expr],
                 residual: Optional[Expr],
                 ctx_factory: Callable[[Schema], BindContext],
                 outer: bool = False):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanningError("hash join needs matching non-empty key lists")
        self.left = left
        self.right = right
        self.outer = outer
        self.schema = left.schema.concat(right.schema)
        left_ctx = ctx_factory(left.schema)
        right_ctx = ctx_factory(right.schema)
        self._left_key_exprs = list(left_keys)
        self._right_key_exprs = list(right_keys)
        self._left_key = bind_tuple(left_keys, left_ctx)
        self._right_key = bind_tuple(right_keys, right_ctx)
        self._residual_expr = residual
        self._residual = (
            residual.bind(ctx_factory(self.schema)) if residual is not None
            else None
        )

    def _execute(self) -> Iterator[tuple]:
        table: dict = {}
        right_key = self._right_key
        for rrow in self.right:
            key = right_key(rrow)
            if None in key:
                continue
            table.setdefault(key, []).append(rrow)
        nulls = (None,) * len(self.right.schema)
        left_key = self._left_key
        residual = self._residual
        outer = self.outer
        todo = every = 1
        mark = time.perf_counter()
        for lrow in self.left:
            matched = False
            # A key holding NULL finds nothing: the table holds none.
            for rrow in table.get(left_key(lrow), ()):
                todo -= 1
                if not todo:
                    every, mark = self._stride(every, mark)
                    todo = every
                combined = lrow + rrow
                if residual is None or residual(combined) is True:
                    matched = True
                    yield combined
            if outer and not matched:
                yield lrow + nulls

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        name = "HashLeftJoin" if self.outer else "HashJoin"
        return f"{name} ({len(self._left_key_exprs)} key(s))"


class SimilarityJoin(PhysicalOperator):
    """ε-distance join: pairs of rows whose 2-D coordinates are within ε.

    The similarity-join operator of the SimDB line (paper §2): an R-tree is
    built over the right side's points and each left row gathers candidate
    partners with the shared probe window.  The window decides nothing:
    ``condition`` is the whole join condition, the ``dist_*(...) <= eps``
    conjunct the planner recognized included, and it is evaluated on every
    gathered pair — the join returns the rows of the predicate it replaces,
    in that predicate's own arithmetic.  Rows with NULL coordinates never
    match.
    """

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator,
                 left_coords: Sequence[Expr], right_coords: Sequence[Expr],
                 eps: float, metric: str,
                 condition: Expr,
                 ctx_factory: Callable[[Schema], BindContext]):
        if len(left_coords) != 2 or len(right_coords) != 2:
            raise PlanningError("similarity join needs 2-D coordinates")
        self.left = left
        self.right = right
        self.eps = float(eps)
        self.metric_name = metric
        self.schema = left.schema.concat(right.schema)
        left_ctx = ctx_factory(left.schema)
        right_ctx = ctx_factory(right.schema)
        self._right_coord_exprs = list(right_coords)
        self._left_xy = bind_tuple(left_coords, left_ctx)
        self._right_xy = bind_tuple(right_coords, right_ctx)
        self._condition = condition.bind(ctx_factory(self.schema))

    def _execute(self) -> Iterator[tuple]:
        eps = self.eps
        index = RTree(max_entries=16)
        right_rows: List[tuple] = []
        for rrow in self.right:
            xy = self._right_xy(rrow)
            if None in xy:
                continue
            index.insert(Rect.from_point(tuple(map(float, xy))),
                         len(right_rows))
            right_rows.append(rrow)
        condition = self._condition
        todo = every = 1
        mark = time.perf_counter()
        for lrow in self.left:
            xy = self._left_xy(lrow)
            if None in xy:
                continue
            window = probe_window(tuple(map(float, xy)), eps)
            for rid in index.search(window):
                todo -= 1
                if not todo:
                    every, mark = self._stride(every, mark)
                    todo = every
                combined = lrow + right_rows[rid]
                if condition(combined) is True:
                    yield combined

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return (
            f"SimilarityJoin ({self.metric_name} within {self.eps})"
        )


class Concat(PhysicalOperator):
    """UNION ALL: children's outputs back to back (first child's schema)."""

    def __init__(self, inputs: Sequence[PhysicalOperator]):
        if not inputs:
            raise PlanningError("Concat needs at least one input")
        arities = {len(p.schema) for p in inputs}
        if len(arities) != 1:
            raise PlanningError(
                f"UNION inputs have differing column counts: {arities}"
            )
        self.inputs = list(inputs)
        self.schema = inputs[0].schema

    def _execute(self) -> Iterator[tuple]:
        return chain.from_iterable(self.inputs)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return tuple(self.inputs)

    def describe(self) -> str:
        return f"Concat ({len(self.inputs)} inputs)"


class Sort(PhysicalOperator):
    """Full sort; NULLs sort first ascending / last descending."""

    def __init__(self, child: PhysicalOperator,
                 key_exprs: Sequence[Expr], ascending: Sequence[bool],
                 ctx_factory: Callable[[Schema], BindContext]):
        self.child = child
        self.schema = child.schema
        ctx = ctx_factory(child.schema)
        self._key_fns = [e.bind(ctx) for e in key_exprs]
        self._ascending = list(ascending)

    def _execute(self) -> Iterator[tuple]:
        rows = self.child.rows()
        # Stable multi-key sort: apply keys right-to-left.
        for fn, asc in reversed(list(zip(self._key_fns, self._ascending))):
            # Each pass is O(n log n) with no checkpoint inside; check
            # the cancel token between key passes at least.
            self._checkpoint(0)
            rows.sort(
                key=lambda row, f=fn: _null_key(f(row)),
                reverse=not asc,
            )
        yield from self._checked(rows)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Sort ({len(self._key_fns)} key(s))"


def _null_key(value: Any) -> tuple:
    # (is_not_null, value): None compares before any value ascending.
    return (value is not None, value)


class Limit(PhysicalOperator):
    def __init__(self, child: PhysicalOperator, limit: int):
        self.child = child
        self.schema = child.schema
        self.limit = limit

    def _execute(self) -> Iterator[tuple]:
        # Stop right after the n-th row, so the child produces exactly n
        # rows; LIMIT 0 never starts it.
        if self.limit <= 0:
            return
        for n, row in enumerate(self.child, 1):
            yield row
            if n == self.limit:
                return

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit {self.limit}"


class Distinct(PhysicalOperator):
    """Order-preserving duplicate elimination."""

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.schema = child.schema

    def _execute(self) -> Iterator[tuple]:
        seen: set = set()
        for row in self.child:
            key = tuple(_hashable(v) for v in row)
            if key in seen:
                continue
            seen.add(key)
            yield row

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        return "Distinct"


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    return value
