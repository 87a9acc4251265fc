"""Aggregation: the base every aggregation node shares, and equality
GROUP BY, whose output rows are ``(key values…, aggregate results…)``.

Every node drains its child, labels each row with its group and folds
each group's argument columns (paper §8.2: one aggregate with a tuple
store); only the labelling differs.  Working a column at a time saves
per-row Python calls, not arithmetic: keys and arguments are evaluated
by their expressions' column forms (``Expr.bind_column``), and a group's
values reach ``Accumulator.step_many`` in row order, so float sums are
a row fold's.

A group is a *run*: its row positions in row order.  :func:`label_runs`
(an SGB node's labels) and :func:`key_runs` (equality keys) build every
run in one dict pass over the rows, keyed by label or key tuple.
``count(*)`` needs no column and no accumulator: it folds to the
lengths of the runs.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import iadd
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.aggregates import Accumulator, accumulator_factory
from repro.engine.executor.base import PhysicalOperator
from repro.engine.schema import Column, Schema
from repro.engine.types import ANY
from repro.sql.ast_nodes import AggCall, BindContext, ColumnFn, Expr


class AggSpec:
    """A planned aggregate call with bound argument evaluators (its name
    and arity checked now rather than mid-execution): ``arg_columns``
    evaluate the arguments, ``arg_fns`` are their row forms."""

    def __init__(self, call: AggCall, arg_fns: Sequence[Callable[[tuple], Any]],
                 arg_columns: Sequence[ColumnFn]):
        self.call = call
        self.arg_fns = list(arg_fns)
        self.arg_columns = list(arg_columns)
        self.new_accumulator: Callable[[], Accumulator] = accumulator_factory(
            call.name, len(self.arg_fns), call.distinct)
        #: ``count(*)``: each group's result is its row count.
        self.counts_rows = (call.name == "count" and not self.arg_fns
                            and not call.distinct)

    def fold(self, n: int, columns: Sequence[Sequence[Any]]) -> Any:
        """The aggregate of ``n`` rows given as one column per argument."""
        acc = self.new_accumulator()
        acc.step_many(n, columns)
        return acc.final()


def build_agg_specs(
    calls: Sequence[AggCall], ctx: BindContext
) -> List[AggSpec]:
    specs = []
    for call in calls:
        fns = [a.bind(ctx) for a in call.args]
        specs.append(AggSpec(call, fns, [a.bind_column(ctx, f)
                                         for a, f in zip(call.args, fns)]))
    return specs


def _runs(keys: Iterable[Hashable]) -> Dict[Any, List[int]]:
    """Row positions per distinct key, in first-seen order and each in
    row order: one dict pass.  A dict tells keys apart: NULL is a key of
    its own, ``1``/``1.0``/``True`` share one."""
    runs: Dict[Any, List[int]] = {}
    for j, key in enumerate(keys):
        runs.setdefault(key, []).append(j)
    return runs


def label_runs(labels: Sequence[int]) -> List[Tuple[int, List[int]]]:
    """``(label, row positions)`` per distinct label, labels ascending and
    positions in row order (only the distinct labels are sorted)."""
    return sorted(_runs(labels).items())


def key_runs(keys: Sequence[tuple]) -> List[List[int]]:
    """Row positions per distinct key tuple, in first-seen order."""
    return list(_runs(keys).values())


class Aggregate(PhysicalOperator):
    """Bound key and aggregate expressions, their column evaluation and
    the fold.  No row leaves the node before the fold is over, so
    :meth:`_column` checks the cancel token between chunks of rows, and
    the groups leave through :meth:`_checked` like a scan's rows.
    ``_key_fns`` are the keys' row forms, ``_key_columns`` what runs."""

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 agg_calls: Sequence[AggCall], ctx: BindContext):
        self.child = child
        self._key_exprs = list(key_exprs)
        self._key_fns = [e.bind(ctx) for e in key_exprs]
        self._key_columns = [e.bind_column(ctx, f)
                             for e, f in zip(key_exprs, self._key_fns)]
        self._specs: List[AggSpec] = build_agg_specs(agg_calls, ctx)

    def _column(self, fn: ColumnFn, rows: List[tuple]) -> list:
        """The column ``fn`` over ``rows``, chunk by chunk through
        :meth:`_chunks`: a cancel is seen within one chunk, a stride of
        values at most, or one value when each is slow (``sleep(s)``),
        and no subterm's column is longer than a chunk."""
        # One list extended by each chunk's column, in C.
        return reduce(iadd, map(fn, self._chunks(iter(rows))), [])

    def _fold(self, rows: List[tuple],
              runs: Sequence[Sequence[int]]) -> List[tuple]:
        """The aggregate results of each run of row positions.
        ``count(*)`` is the runs' lengths.  For any other aggregate the
        rows are reordered run by run, once; one aggregate at a time (so
        one aggregate's columns are held at once), each argument is
        evaluated as a column and each run's slice goes to one
        ``step_many``."""
        sizes = list(map(len, runs))
        grouped: Optional[List[tuple]] = None
        results = []
        for spec in self._specs:
            if spec.counts_rows:
                results.append(sizes)
                continue
            if grouped is None:
                if len(runs) == 1 and sizes[0] == len(rows):
                    grouped = rows  # one group of every row, in order
                else:
                    grouped = [rows[j] for run in runs for j in run]
                bounds = list(accumulate(sizes, initial=0))
                spans = list(zip(bounds, bounds[1:]))
            cols = [self._column(f, grouped) for f in spec.arg_columns]
            results.append([spec.fold(end - start,
                                      [col[start:end] for col in cols])
                            for start, end in spans])
        return list(zip(*results)) if results else [()] * len(runs)

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)


class HashAggregate(Aggregate):
    """Equality GROUP BY: rows labelled by :func:`key_runs`, groups in
    first-seen order with their first row's key values; with no keys, a
    single group (one output row even for empty input, per SQL)."""

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext]):
        super().__init__(child, key_exprs, agg_calls,
                         ctx_factory(child.schema))
        self._n_keys = len(key_exprs)
        columns = [Column(f"__key{i}", ANY) for i in range(len(key_exprs))]
        columns += [Column(f"__agg{i}", ANY) for i in range(len(agg_calls))]
        self.schema = Schema(columns)

    def _execute(self) -> Iterator[tuple]:
        rows = list(self.child)
        if not self._key_columns:
            # SQL scalar aggregate: one row of finals, even for no input.
            yield from self._fold(rows, [range(len(rows))])
            return
        keys = list(zip(*[self._column(f, rows) for f in self._key_columns]))
        runs = key_runs(keys)
        yield from self._checked([keys[run[0]] + results for run, results
                                  in zip(runs, self._fold(rows, runs))])

    def describe(self) -> str:
        return f"HashAggregate (keys={self._n_keys}, aggs={len(self._specs)})"
