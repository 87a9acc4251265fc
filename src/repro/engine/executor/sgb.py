"""The similarity aggregate nodes (paper §8.2; arXiv:1412.4842 §8.2).

The engine-integrated counterpart of the modified hash-aggregate node the
papers add to PostgreSQL: *one* aggregate with a tuple store, in which only
the rule that draws group boundaries varies.  :class:`SimilarityAggregate`
owns the three steps every similarity clause shares —

1. **spool**: drain the child, evaluate the grouping attributes as one
   column each, turn the columns into points (:func:`grouping_points`)
   and bucket ``(point, row)`` by the PARTITION BY keys.  ELIMINATE /
   FORM-NEW-GROUP can only produce final groups once the whole input is
   seen, so rows wait in a tuple store (Python lists here), like
   PostgreSQL's version;
2. **label**: the one hook, ``_labels`` — a group label per spooled row;
3. **fold**: group the rows by label, evaluate each aggregate argument
   as one column, fold each group's slice, emit one row per group —

and :class:`SGBAggregate` (DISTANCE-TO-ALL/ANY; the only clause with
partitions), :class:`SGBAroundAggregate` (N-D AROUND)
and :class:`SGB1DAggregate` (the ICDE 2009 clauses) differ only in
``_labels``.  ``HashAggregate`` stays apart on purpose: equality groups are
final the moment a row arrives, so it streams and never spools.

Output rows hold the partition keys and the aggregate results only — a raw
grouping attribute is not constant within a similarity group, so
referencing one outside an aggregate is a planning error (caught upstream).

Working a column at a time saves the per-row Python calls of a row loop,
not arithmetic: each group's values still reach ``Accumulator.step_many``
in row order, so there is no numpy fold and float sums keep the order of
the row fold they replaced.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import datetime as _dt
import decimal as _decimal
import math
from itertools import accumulate, groupby

from repro.core.around import sgb_around_nd
from repro.core.parallel import label_partitions, partition_seed
from repro.core.sgb_1d import sgb_around, sgb_segment
from repro.engine.executor.aggregate import AggSpec, build_agg_specs
from repro.engine.executor.base import PhysicalOperator
from repro.engine.schema import Column, Schema
from repro.engine.types import ANY
from repro.errors import ExecutionError, InvalidCoordinateError
from repro.obs.trace import maybe_span
from repro.sql.ast_nodes import AggCall, BindContext, Expr

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.stats.chooser import SGBChoice

Point = Tuple[float, ...]

#: One spooled partition ``(key, points, rows)``; the lists are parallel.
Partition = Tuple[tuple, List[Point], List[tuple]]


def grouping_coordinate(value):
    """Numeric coordinate for a grouping-attribute value.

    Dates map to ordinal days (so ε is measured in days) and ``Decimal``
    values are numeric like any other; bools are rejected along with
    every other non-numeric type — with a typed :class:`ExecutionError`,
    so grouping-attribute failures stay inside the engine's error
    taxonomy.
    """
    if type(value) is float:  # the common case, ahead of the type ladder
        return value
    if isinstance(value, _dt.date):
        return float(value.toordinal())
    if isinstance(value, _decimal.Decimal):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"not a numeric grouping attribute: {value!r}")
    return float(value)


def grouping_point(values: Sequence) -> Optional[Point]:
    """The point a row's grouping-attribute ``values`` denote, or ``None``.

    The row → point rule of every similarity clause: a stream view calls
    it per inserted row, and the batch spool's column rule
    (:func:`grouping_points`) gives the same answer and falls back to it
    to report a bad value.  A NULL attribute cannot satisfy a distance
    predicate, so the row has no point (callers skip and count it —
    unlike vanilla GROUP BY, see docs/sql_dialect.md); a non-numeric one
    is an :class:`ExecutionError`; NaN / ±inf is an
    :class:`InvalidCoordinateError` as in
    :func:`repro.core.api.validate_point` — NaN compares false with
    everything and silently corrupts sorts, bounds tests and indexes.
    """
    if None in values:
        return None
    try:
        point = tuple(map(grouping_coordinate, values))
        finite = all(map(math.isfinite, point))
    except (OverflowError, ValueError):  # 10**400, Decimal('sNaN')
        finite = False
    if not finite:
        raise InvalidCoordinateError(
            f"point {tuple(values)!r} has a non-finite coordinate"
        )
    return point


def grouping_points(columns: Sequence[list]) -> List[Optional[Point]]:
    """The column form of :func:`grouping_point`: one point per row.

    ``columns`` holds one list per grouping attribute.  A column of plain
    finite floats is used as it is; any other column goes through
    :func:`grouping_coordinate` value by value.  A row with a NULL
    attribute gets ``None``.  If some value is not a finite number, the
    row rule is rerun over the rows in order, so the error raised is the
    first offending row's — or none, when a NULL in another attribute
    already skips that row.
    """
    coords = [_coordinate_column(column) for column in columns]
    if any(column is None for column in coords):
        return [grouping_point(values) for values in zip(*columns)]
    points: List[Optional[Point]] = list(zip(*coords))
    if any(None in column for column in coords):
        points = [None if None in p else p for p in points]
    return points


def _coordinate_column(column: list) -> Optional[list]:
    """``column`` as coordinates (NULLs kept), or ``None`` when some value
    is not a finite number and the row rule has to say why."""
    if set(map(type, column)) != {float}:
        try:
            column = [v if v is None else grouping_coordinate(v)
                      for v in column]
        except (ExecutionError, OverflowError, ValueError):
            return None
    # filter(None, …) drops the NULLs (and zeros, which are finite).
    return column if all(map(math.isfinite, filter(None, column))) else None


def _label_runs(labels: Sequence[int]) -> List[Tuple[int, List[int]]]:
    """``(label, row positions)`` per distinct label, labels ascending and
    positions in row order (the sort is stable)."""
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    return [(label, list(run))
            for label, run in groupby(by_label, labels.__getitem__)]


class SGBConfig:
    """Execution knobs for the SGB node (set on the Database).

    ``all_strategy`` / ``any_strategy`` default to ``"auto"``: the
    planner's statistics-driven chooser picks the cheapest strategy per
    query (see :mod:`repro.stats.chooser`).  A concrete strategy name is
    an override that always wins.

    ``tiebreak`` / ``seed`` arbitrate JOIN-ANY, see
    :class:`~repro.core.sgb_all.SGBAllOperator`.
    """

    def __init__(self, all_strategy: str = "auto", any_strategy: str = "auto",
                 tiebreak: str = "random", seed: int = 0):
        self.all_strategy = all_strategy
        self.any_strategy = any_strategy
        self.tiebreak = tiebreak
        self.seed = seed


class SimilarityAggregate(PhysicalOperator):
    """Spool → label → fold: the template every similarity clause runs.

    Subclasses supply the clause parameters, ``describe()`` and
    :meth:`_labels`; spooling, NULL / type / finiteness handling,
    counters, cancel checkpoints and the aggregate fold live here once.
    Both the spool and the fold work a column at a time: every key,
    PARTITION BY and aggregate-argument expression is evaluated by
    :meth:`_column`, which checks the cancel token once per chunk of
    :attr:`CHECKPOINT_EVERY` rows rather than once per row.
    """

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext],
                 partition_exprs: Sequence[Expr] = ()):
        self.child = child
        ctx = ctx_factory(child.schema)
        self._key_exprs = list(key_exprs)
        self._partition_exprs = list(partition_exprs)
        self._key_fns = [e.bind(ctx) for e in key_exprs]
        self._partition_fns = [e.bind(ctx) for e in partition_exprs]
        self._specs: List[AggSpec] = build_agg_specs(agg_calls, ctx)
        columns = [Column(f"__part{i}", ANY)
                   for i in range(len(partition_exprs))]
        columns += [Column(f"__agg{i}", ANY) for i in range(len(agg_calls))]
        self.schema = Schema(columns)

    def _labels(self, partitions: List[Partition]) -> Iterable[Sequence[int]]:
        """One label sequence per spooled partition, in order.

        ``labels[j]`` is the group of the partition's ``j``-th row; a
        negative label (ELIMINATE, outside every AROUND radius) drops the
        row from the output.  May be lazy: partition ``i`` is folded
        before partition ``i + 1`` is asked for.
        """
        raise NotImplementedError

    def _column(self, fn: Callable[[tuple], object],
                rows: List[tuple]) -> list:
        """``fn`` over ``rows`` as one list.

        No row leaves this node until the whole input is spooled and
        folded, so the token is checked once per :attr:`CHECKPOINT_EVERY`
        rows here, where expressions are evaluated.
        """
        stride = self.CHECKPOINT_EVERY
        column: list = []
        for start in range(0, len(rows), stride):
            self._checkpoint(start)
            column += map(fn, rows[start:start + stride])
        return column

    def _spool(self) -> List[Partition]:
        """Child rows → partitions in first-seen order; §8.2 tuple store.

        Each key and PARTITION BY expression is evaluated as one column
        and the key columns become points by :func:`grouping_points`.
        Without PARTITION BY keys there is at most one partition, keyed
        ``()``; an empty input spools no partition at all.
        """
        rows = list(self.child)
        points = grouping_points([self._column(f, rows)
                                  for f in self._key_fns])
        skipped = 0
        if None in points:
            rows = [row for row, p in zip(rows, points) if p is not None]
            skipped = len(points) - len(rows)
            points = [p for p in points if p is not None]
        if not rows:
            spooled: List[Partition] = []
        elif not self._partition_fns:
            spooled = [((), points, rows)]
        else:
            pkeys = list(zip(*[self._column(f, rows)
                               for f in self._partition_fns]))
            first_seen: Dict[tuple, int] = {}
            ids = [first_seen.setdefault(k, len(first_seen)) for k in pkeys]
            spooled = [(pkeys[run[0]], [points[j] for j in run],
                        [rows[j] for j in run])
                       for _id, run in _label_runs(ids)]
        bag = self._ctx.bag_of(self)
        if bag is not None:
            if skipped:
                bag.incr("rows_skipped_null", skipped)
            if rows:
                bag.incr("rows_spooled", len(rows))
        return spooled

    def _fold(self, pkey: tuple, rows: List[tuple],
              labels: Sequence[int]) -> List[tuple]:
        """Aggregate one labelled partition; one output row per group.

        Rows are reordered group by group (label −1 rows dropped), each
        aggregate argument is evaluated once as a column over them, and
        each group's slice of the columns goes to one ``step_many``.
        """
        specs = self._specs
        runs = [run for label, run in _label_runs(labels) if label >= 0]
        grouped = [rows[j] for run in runs for j in run]
        columns = [[self._column(f, grouped) for f in spec.arg_fns]
                   for spec in specs]
        bounds = list(accumulate(map(len, runs), initial=0))
        return [
            pkey + tuple(spec.fold(end - start,
                                   [col[start:end] for col in cols])
                         for spec, cols in zip(specs, columns))
            for start, end in zip(bounds, bounds[1:])
        ]

    def _execute(self) -> Iterator[tuple]:
        tracer = self._ctx.tracer
        with maybe_span(tracer, "spool") as sp:
            partitions = self._spool()
            sp.set(partitions=len(partitions))
        for (pkey, _points, rows), labels in zip(partitions,
                                                 self._labels(partitions)):
            with maybe_span(tracer, "fold", rows=len(rows)) as sp:
                out = self._fold(pkey, rows, labels)
                sp.set(groups=len(out))
            yield from out

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)


class SGBAggregate(SimilarityAggregate):
    """Similarity aggregation: mode 'all' (with an overlap clause) or 'any'."""

    config: SGBConfig

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 mode: str, metric: str, eps: float, on_overlap: str,
                 agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext],
                 config: SGBConfig,
                 partition_exprs: Sequence[Expr] = ()):
        if mode not in ("all", "any"):
            raise ExecutionError(f"unknown SGB mode {mode!r}")
        super().__init__(child, key_exprs, agg_calls, ctx_factory,
                         partition_exprs)
        self.mode = mode
        self.metric = metric
        self.eps = eps
        self.on_overlap = on_overlap
        self.config = config
        configured = (
            config.all_strategy if mode == "all" else config.any_strategy
        )
        #: The resolved strategy.  Construction falls back to the "index"
        #: default for an ``"auto"`` config; the planner upgrades it via
        #: :meth:`apply_choice` once statistics are consulted.
        self.strategy = configured if configured != "auto" else "index"
        self.choice: "Optional[SGBChoice]" = None

    def apply_choice(self, choice: "SGBChoice") -> None:
        """Install the planner's resolved strategy.

        Kept as node-level fields (the shared :class:`SGBConfig` is never
        mutated, so concurrent queries with different statistics cannot
        race each other's choices).  All strategies produce bit-identical
        memberships, so this only moves time around.
        """
        self.strategy = choice.strategy
        self.choice = choice

    def _operator_kwargs(self, pkey: tuple) -> dict:
        """Constructor arguments for one partition's operator.

        SGB-All draws from a deterministic per-partition RNG stream (see
        :func:`repro.core.parallel.partition_seed`).
        """
        kwargs = dict(eps=self.eps, metric=self.metric,
                      strategy=self.strategy)
        if self.mode == "all":
            kwargs.update(
                on_overlap=self.on_overlap,
                tiebreak=self.config.tiebreak,
                seed=partition_seed(self.config.seed, pkey),
            )
        return kwargs

    def _labels(self, partitions: List[Partition]) -> Iterator[Sequence[int]]:
        """Group each partition lazily, one
        :func:`~repro.core.parallel.group_partition` per partition,
        reporting into this node's collectors."""
        return label_partitions(
            [(self.mode, points, self._operator_kwargs(pkey))
             for pkey, points, _rows in partitions],
            self._ctx,
            bag=self._ctx.bag_of(self),
        )

    def describe(self) -> str:
        clause = f" on-overlap={self.on_overlap}" if self.mode == "all" else ""
        suffix = f" strategy={self.strategy}"
        if self.choice is not None:
            suffix += f"/{self.choice.source}"
        return (
            f"SimilarityGroupBy (distance-to-{self.mode} {self.metric} "
            f"within {self.eps}{clause})" + suffix
        )


class SGBAroundAggregate(SimilarityAggregate):
    """Supervised multi-dimensional grouping around fixed centres."""

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 centers: Sequence[Sequence[float]], metric: str,
                 radius, agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext]):
        super().__init__(child, key_exprs, agg_calls, ctx_factory)
        self.centers = [tuple(c) for c in centers]
        self.metric = metric
        self.radius = radius

    def _labels(self, partitions: List[Partition]) -> Iterator[Sequence[int]]:
        for _pkey, points, _rows in partitions:
            yield sgb_around_nd(points, self.centers, eps=self.radius,
                                metric=self.metric).labels

    def describe(self) -> str:
        within = f" within {self.radius}" if self.radius is not None else ""
        return (
            f"SimilarityGroupAround ({len(self.centers)} centres, "
            f"{self.metric}{within})"
        )


class SGB1DAggregate(SimilarityAggregate):
    """The one-dimensional similarity aggregation node (ICDE 2009 clauses).

    ``kind='segment'`` implements MAXIMUM-ELEMENT-SEPARATION (with optional
    MAXIMUM-GROUP-DIAMETER); ``kind='around'`` implements GROUP AROUND a
    list of central points.  Rows whose value falls outside every group
    (AROUND with a diameter bound) are excluded from the output, like
    ELIMINATE in the multi-dimensional operator.
    """

    def __init__(self, child: PhysicalOperator, key_expr: Expr, kind: str,
                 agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext],
                 separation: float = 0.0,
                 diameter: Optional[float] = None,
                 centers: Sequence[float] = ()):
        if kind not in ("segment", "around"):
            raise ExecutionError(f"unknown 1-D SGB kind {kind!r}")
        super().__init__(child, [key_expr], agg_calls, ctx_factory)
        self.kind = kind
        self.separation = separation
        self.diameter = diameter
        self.centers = list(centers)

    def _labels(self, partitions: List[Partition]) -> Iterator[Sequence[int]]:
        for _pkey, points, _rows in partitions:
            values = [p[0] for p in points]
            if self.kind == "segment":
                result = sgb_segment(values, self.separation, self.diameter)
            else:
                result = sgb_around(values, self.centers, self.diameter)
            yield result.labels

    def describe(self) -> str:
        if self.kind == "segment":
            extra = f"separation={self.separation}"
        else:
            extra = f"around {len(self.centers)} centre(s)"
        if self.diameter is not None:
            extra += f" diameter={self.diameter}"
        return f"SimilarityGroupBy1D ({extra})"
