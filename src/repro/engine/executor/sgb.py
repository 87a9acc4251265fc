"""The similarity aggregate nodes (paper §8.2; arXiv:1412.4842 §8.2).

The engine-integrated counterpart of the modified hash-aggregate node the
papers add to PostgreSQL: *one* aggregate with a tuple store, in which only
the rule that draws group boundaries varies.  :class:`SimilarityAggregate`
owns the three steps every similarity clause shares —

1. **spool**: consume the child, turn each row's grouping attributes into
   a point (:func:`grouping_point`) and bucket ``(point, row)`` by the
   PARTITION BY keys.  ELIMINATE / FORM-NEW-GROUP can only produce final
   groups once the whole input is seen, so rows wait in a tuple store
   (Python lists here), like PostgreSQL's version;
2. **label**: the one hook, ``_labels`` — a group label per spooled row;
3. **fold**: step each row's group accumulators, emit one row per group —

and :class:`SGBAggregate` (DISTANCE-TO-ALL/ANY; the only clause with
partitions and a process pool), :class:`SGBAroundAggregate` (N-D AROUND)
and :class:`SGB1DAggregate` (the ICDE 2009 clauses) differ only in
``_labels``.  ``HashAggregate`` stays apart on purpose: equality groups are
final the moment a row arrives, so it streams and never spools.

Output rows hold the partition keys and the aggregate results only — a raw
grouping attribute is not constant within a similarity group, so
referencing one outside an aggregate is a planning error (caught upstream).
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

from repro.core.around import sgb_around_nd
from repro.core.parallel import (
    label_partitions,
    partition_seed,
    resolve_workers,
)
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

    The one row → point rule of every similarity clause, batch or
    streaming.  A NULL attribute cannot satisfy a distance predicate, so
    the row has no point (callers skip and count it — unlike vanilla GROUP
    BY, see docs/sql_dialect.md); a non-numeric one is an
    :class:`ExecutionError`; NaN / ±inf is an
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


class SGBConfig:
    """Execution knobs for the SGB node (set on the Database).

    ``all_strategy`` / ``any_strategy`` default to ``"auto"``: the
    planner's statistics-driven chooser picks the cheapest strategy per
    query (see :mod:`repro.stats.chooser`).  A concrete strategy name is
    an override that always wins.

    ``parallel`` dispatches independent PARTITION BY partitions to a
    process pool: ``None`` (default) lets the chooser decide, ``0``/``1``
    force serial, ``n > 1`` a pool of ``n`` workers, negative one worker
    per CPU.  Results are bit-identical to serial execution (see
    :mod:`repro.core.parallel`).

    ``tiebreak`` / ``seed`` arbitrate JOIN-ANY, see
    :class:`~repro.core.sgb_all.SGBAllOperator`.
    """

    def __init__(self, all_strategy: str = "auto", any_strategy: str = "auto",
                 tiebreak: str = "random", seed: int = 0,
                 parallel: Optional[int] = None):
        self.all_strategy = all_strategy
        self.any_strategy = any_strategy
        self.tiebreak = tiebreak
        self.seed = seed
        self.parallel = parallel


class SimilarityAggregate(PhysicalOperator):
    """Spool → label → fold: the template every similarity clause runs.

    Subclasses supply the clause parameters, ``describe()`` and
    :meth:`_labels`; spooling, NULL / type / finiteness handling,
    counters, cancel checkpoints and the aggregate fold live here once.
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

    def _spool(self) -> List[Partition]:
        """Child rows → partitions in first-seen order; §8.2 tuple store.

        Without PARTITION BY keys there is at most one partition, keyed
        ``()``; an empty input spools no partition at all.
        """
        partitions: Dict[tuple, Partition] = {}
        key_fns = self._key_fns
        partition_fns = self._partition_fns
        pkey: tuple = ()
        skipped = 0
        for row in self.child:
            point = grouping_point([f(row) for f in key_fns])
            if point is None:
                skipped += 1
                continue
            if partition_fns:
                pkey = tuple([f(row) for f in partition_fns])
            bucket = partitions.get(pkey)
            if bucket is None:
                bucket = partitions[pkey] = (pkey, [], [])
            bucket[1].append(point)
            bucket[2].append(row)
        spooled = list(partitions.values())
        bag = self._ctx.bag_of(self)
        if bag is not None:
            if skipped:
                bag.incr("rows_skipped_null", skipped)
            if spooled:
                bag.incr("rows_spooled", sum(len(p[2]) for p in spooled))
        return spooled

    def _fold(self, pkey: tuple, rows: List[tuple],
              labels: Sequence[int]) -> Iterator[tuple]:
        """Aggregate one labelled partition; one output row per group."""
        specs = self._specs
        group_accs: dict = {}
        for j, (row, label) in enumerate(zip(rows, labels)):
            # No row leaves this node until the whole partition is
            # aggregated; without a mid-loop checkpoint a cancel or
            # deadline fired here is only seen after the grind.
            self._checkpoint(j)
            if label < 0:
                continue
            accs = group_accs.get(label)
            if accs is None:
                accs = group_accs[label] = [s.new_accumulator() for s in specs]
            for spec, acc in zip(specs, accs):
                spec.step(acc, row)
        for label in sorted(group_accs):
            yield pkey + tuple(a.final() for a in group_accs[label])

    def _execute(self) -> Iterator[tuple]:
        with maybe_span(self._ctx.tracer, "spool") as sp:
            partitions = self._spool()
            sp.set(partitions=len(partitions))
        for (pkey, _points, rows), labels in zip(partitions,
                                                 self._labels(partitions)):
            yield from self._fold(pkey, rows, labels)

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
        #: Resolved execution decisions.  Construction falls back to the
        #: "index" default for an ``"auto"`` config; the planner upgrades
        #: them via :meth:`apply_choice` once statistics are consulted.
        self.strategy = configured if configured != "auto" else "index"
        self.workers_hint: int = 0 if config.parallel is None else (
            config.parallel
        )
        self.choice: "Optional[SGBChoice]" = None

    def apply_choice(self, choice: "SGBChoice") -> None:
        """Install the planner's resolved strategy / parallel decision.

        Kept as node-level fields (the shared :class:`SGBConfig` is never
        mutated, so concurrent queries with different statistics cannot
        race each other's choices).  All strategies produce bit-identical
        memberships, so this only moves time around.
        """
        self.strategy = choice.strategy
        self.workers_hint = choice.parallel
        self.choice = choice

    def _operator_kwargs(self, pkey: tuple) -> dict:
        """Picklable constructor arguments for one partition's operator.

        SGB-All draws from a deterministic per-partition RNG stream (see
        :func:`repro.core.parallel.partition_seed`), which is also what
        makes partitions safe to run in worker processes.
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
        """Group each partition, in this process or on the pool.

        Either way one :func:`~repro.core.parallel.group_partition` per
        partition reports into this node's collectors, so EXPLAIN ANALYZE
        totals and span trees do not depend on where it ran, and
        per-partition seeds make the labels bit-identical.
        """
        return label_partitions(
            [(self.mode, points, self._operator_kwargs(pkey))
             for pkey, points, _rows in partitions],
            resolve_workers(self.workers_hint),
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
