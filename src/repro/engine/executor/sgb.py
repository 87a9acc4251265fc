"""The Similarity Group-By executor node (paper §8.2).

Grouping attributes must be numeric; DATE attributes are supported by
mapping them to their ordinal day number, so ``WITHIN 7`` over a date
column means "within a week".

This is the engine-integrated counterpart of the modified hash-aggregate
node the paper adds to PostgreSQL: it consumes its child like a normal
aggregate, but groups rows with :class:`~repro.core.sgb_all.SGBAllOperator`
or :class:`~repro.core.sgb_any.SGBAnyOperator` over the (multi-dimensional)
grouping attributes instead of an equality hash table.

Like PostgreSQL's version, the ELIMINATE / FORM-NEW-GROUP semantics can only
produce final groups after the whole input is seen, so rows are spooled in a
tuple store (a Python list here) and aggregated once the operator finalizes.
Output rows contain the aggregate results only — a raw grouping attribute is
not constant within a similarity group, so referencing one outside an
aggregate is a planning error (caught upstream).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import datetime as _dt
import decimal as _decimal
import math
import os

from repro import kernels
from repro.core.around import sgb_around_nd
from repro.core.parallel import (
    fold_obs_payload,
    partition_seed,
    resolve_workers,
    run_partitions,
)
from repro.core.sgb_1d import sgb_around, sgb_segment
from repro.core.sgb_all import SGBAllOperator
from repro.core.sgb_any import SGBAnyOperator
from repro.engine.executor.aggregate import AggSpec, build_agg_specs
from repro.engine.executor.base import PhysicalOperator
from repro.engine.schema import Column, Schema
from repro.engine.types import ANY
from repro.errors import ExecutionError, InvalidCoordinateError
from repro.obs.trace import maybe_span
from repro.sql.ast_nodes import AggCall, BindContext, Expr

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.stats.chooser import SGBChoice


def _coordinate(value):
    """Numeric coordinate for a grouping-attribute value.

    Dates map to ordinal days (so ε is measured in days) and ``Decimal``
    values are numeric like any other; bools are rejected along with
    every other non-numeric type — with a typed :class:`ExecutionError`,
    so grouping-attribute failures stay inside the engine's error
    taxonomy wherever :func:`_coordinate` is called from.
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

    ``trace`` is an optional :class:`~repro.obs.trace.Tracer`; when set
    (the Database installs its tracer here when tracing is on), the SGB
    node emits strategy-phase and per-partition spans, and propagates
    trace context into parallel worker processes.

    ``profile`` is an optional running
    :class:`~repro.obs.profile.SamplingProfiler`; parallel dispatch uses
    it to ship a profile context (interval + current span path) into
    worker processes so their samples fold back into one flamegraph.
    """

    def __init__(self, all_strategy: str = "auto", any_strategy: str = "auto",
                 tiebreak: str = "random", seed: int = 0,
                 parallel: Optional[int] = None, trace=None, profile=None):
        self.all_strategy = all_strategy
        self.any_strategy = any_strategy
        self.tiebreak = tiebreak
        self.seed = seed
        self.parallel = parallel
        self.trace = trace
        self.profile = profile


class SGBAggregate(PhysicalOperator):
    """Similarity aggregation: mode 'all' (with an overlap clause) or 'any'."""

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 mode: str, metric: str, eps: float, on_overlap: str,
                 agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext],
                 config: SGBConfig,
                 partition_exprs: Sequence[Expr] = ()):
        if mode not in ("all", "any"):
            raise ExecutionError(f"unknown SGB mode {mode!r}")
        self.child = child
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

    def _partition_seed(self, pkey: tuple) -> int:
        """Deterministic per-partition RNG seed (see
        :func:`repro.core.parallel.partition_seed` for the rationale —
        it is also what makes partitions safe to run in worker
        processes)."""
        return partition_seed(self.config.seed, pkey)

    def _operator_kwargs(self, pkey: tuple) -> dict:
        """Picklable constructor arguments for one partition's operator."""
        if self.mode == "all":
            return dict(
                eps=self.eps,
                metric=self.metric,
                on_overlap=self.on_overlap,
                strategy=self.strategy,
                tiebreak=self.config.tiebreak,
                seed=self._partition_seed(pkey),
            )
        return dict(
            eps=self.eps,
            metric=self.metric,
            strategy=self.strategy,
        )

    @property
    def _active_tracer(self):
        """The node's tracer: ``attach(plan, tracer=)`` wins, then the
        config-level tracer the Database installs (``SGBConfig.trace``)."""
        return self._tracer if self._tracer is not None else self.config.trace

    def _make_operator(self, pkey: tuple = ()):
        bag = self._obs.bag if self._obs is not None else None
        tracer = self._active_tracer
        if self.mode == "all":
            return SGBAllOperator(metrics=bag, tracer=tracer,
                                  **self._operator_kwargs(pkey))
        return SGBAnyOperator(metrics=bag, tracer=tracer,
                              **self._operator_kwargs(pkey))

    def _spool_partitions(self) -> Tuple[Dict[tuple, tuple], List[tuple]]:
        """Partition child rows by the equality keys; §8.2 tuple store.

        Without a PARTITION BY clause there is exactly one partition.
        """
        partitions: Dict[tuple, tuple] = {}
        partition_order: List[tuple] = []
        key_fns = self._key_fns
        partition_fns = self._partition_fns
        bag = self._obs.bag if self._obs is not None else None
        for row in self.child:
            coords = tuple(f(row) for f in key_fns)
            if None in coords:
                # NULL grouping attributes cannot satisfy a distance
                # predicate; such rows are excluded from similarity grouping
                # (diverges from vanilla GROUP BY — see docs/sql_dialect.md).
                if bag is not None:
                    bag.incr("rows_skipped_null")
                continue
            try:
                point = tuple(map(_coordinate, coords))
            except (TypeError, ValueError):
                raise ExecutionError(
                    f"similarity grouping attributes must be numeric, "
                    f"got {coords!r}"
                ) from None
            if not all(map(math.isfinite, point)):
                # Same rejection as ``repro.core.api.validate_point``: NaN
                # compares false with everything and corrupts the index.
                raise InvalidCoordinateError(
                    f"point {coords!r} has a non-finite coordinate"
                )
            pkey = tuple(f(row) for f in partition_fns)
            bucket = partitions.get(pkey)
            if bucket is None:
                bucket = ([], [])  # (points, spooled rows — §8.2 store)
                partitions[pkey] = bucket
                partition_order.append(pkey)
            bucket[0].append(point)
            bucket[1].append(row)
            if bag is not None:
                bag.incr("rows_spooled")
        return partitions, partition_order

    def _labels_parallel(
        self, partitions, partition_order, workers: int
    ) -> List[List[int]]:
        """Group every partition on a process pool; merge worker payloads.

        Per-partition seeds make the labels bit-identical to the serial
        loop; each worker collects its own MetricBag (only when the parent
        has one attached) whose counters, timings, and latency histograms
        are folded back here so EXPLAIN ANALYZE reports the same totals
        either way.  With tracing on, the current trace context
        ``(trace_id, this node's span id)`` is propagated into every
        worker, whose partition/phase spans come back already parented
        onto it and are ingested into the parent tracer.
        """
        bag = self._obs.bag if self._obs is not None else None
        tracer = self._active_tracer
        profiler = self.config.profile
        if profiler is not None and not profiler.running:
            profiler = None
        profile_context = None
        if profiler is not None:
            from repro.obs.profile import span_prefix_of

            # Workers prepend the dispatch-side span path to every sample
            # so their stacks nest under this node in the folded profile.
            profile_context = (profiler.interval_s, span_prefix_of(tracer))
        tasks = [
            (self.mode, partitions[pkey][0], self._operator_kwargs(pkey))
            for pkey in partition_order
        ]
        results = run_partitions(
            tasks,
            workers,
            backend=kernels.active_backend(),
            want_metrics=bag is not None,
            trace_context=tracer.context() if tracer is not None else None,
            cancel=self._cancel,
            profile_context=profile_context,
        )
        label_lists: List[List[int]] = []
        for labels, obs_payload in results:
            # Folding worker payloads is per-partition work with no row
            # crossing a node edge; re-check the token between folds.
            self._checkpoint(0)
            label_lists.append(labels)
            fold_obs_payload(obs_payload, bag=bag, tracer=tracer,
                             profiler=profiler)
        return label_lists

    def _execute(self) -> Iterator[tuple]:
        tracer = self._active_tracer
        with maybe_span(tracer, "spool") as sp:
            partitions, partition_order = self._spool_partitions()
            sp.set(partitions=len(partition_order))
        workers = resolve_workers(self.workers_hint)
        label_lists: Optional[List[List[int]]] = None
        if workers > 1 and len(partition_order) > 1:
            with maybe_span(tracer, "parallel_dispatch", workers=workers,
                            partitions=len(partition_order)):
                label_lists = self._labels_parallel(
                    partitions, partition_order, workers
                )
        specs = self._specs
        for i, pkey in enumerate(partition_order):
            if self._cancel is not None:
                # Partition boundary: grouping one partition is the
                # longest stretch with no iteration boundary to check at.
                self._cancel.check()
            points, spool = partitions[pkey]
            if label_lists is not None:
                labels = label_lists[i]
            else:
                # Same span shape as the worker-side run_partition, so a
                # serial and a parallel execution of one query produce
                # identical trace trees (modulo pids).
                with maybe_span(tracer, "partition", partition=i,
                                points=len(points), mode=self.mode,
                                pid=os.getpid()):
                    operator = self._make_operator(pkey)
                    operator.add_many(points)
                    labels = operator.finalize().labels
            group_accs: dict = {}
            order: List[int] = []
            for j, (row, label) in enumerate(zip(spool, labels)):
                # No row leaves this node until the whole partition is
                # aggregated; without a mid-loop checkpoint a cancel or
                # deadline fired here is only seen after the grind.
                self._checkpoint(j)
                if label < 0:  # eliminated by the ON-OVERLAP clause
                    continue
                accs = group_accs.get(label)
                if accs is None:
                    accs = [s.new_accumulator() for s in specs]
                    group_accs[label] = accs
                    order.append(label)
                for spec, acc in zip(specs, accs):
                    spec.step(acc, row)
            for label in sorted(order):
                yield pkey + tuple(a.final() for a in group_accs[label])

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        clause = f" on-overlap={self.on_overlap}" if self.mode == "all" else ""
        suffix = f" strategy={self.strategy}"
        if self.choice is not None:
            suffix += f"/{self.choice.source}"
        return (
            f"SimilarityGroupBy (distance-to-{self.mode} {self.metric} "
            f"within {self.eps}{clause})" + suffix
        )


class SGBAroundAggregate(PhysicalOperator):
    """Supervised multi-dimensional grouping around fixed centres."""

    def __init__(self, child: PhysicalOperator, key_exprs: Sequence[Expr],
                 centers: Sequence[Sequence[float]], metric: str,
                 radius, agg_calls: Sequence[AggCall],
                 ctx_factory: Callable[[Schema], BindContext]):
        self.child = child
        self.centers = [tuple(c) for c in centers]
        self.metric = metric
        self.radius = radius
        ctx = ctx_factory(child.schema)
        self._key_fns = [e.bind(ctx) for e in key_exprs]
        self._specs: List[AggSpec] = build_agg_specs(agg_calls, ctx)
        self.schema = Schema(
            [Column(f"__agg{i}", ANY) for i in range(len(agg_calls))]
        )

    def _execute(self) -> Iterator[tuple]:
        spool: List[tuple] = []
        points: List[tuple] = []
        key_fns = self._key_fns
        bag = self._obs.bag if self._obs is not None else None
        for row in self.child:
            coords = tuple(f(row) for f in key_fns)
            if any(c is None for c in coords):
                if bag is not None:
                    bag.incr("rows_skipped_null")
                continue
            try:
                points.append(tuple(_coordinate(c) for c in coords))
            except (TypeError, ValueError):
                raise ExecutionError(
                    f"grouping attributes must be numeric, got {coords!r}"
                ) from None
            spool.append(row)
            if bag is not None:
                bag.incr("rows_spooled")
        result = sgb_around_nd(points, self.centers, eps=self.radius,
                               metric=self.metric)
        specs = self._specs
        group_accs: dict = {}
        order: List[int] = []
        for j, (row, label) in enumerate(zip(spool, result.labels)):
            self._checkpoint(j)  # buffering loop: no per-row node edge
            if label < 0:
                continue
            accs = group_accs.get(label)
            if accs is None:
                accs = [s.new_accumulator() for s in specs]
                group_accs[label] = accs
                order.append(label)
            for spec, acc in zip(specs, accs):
                spec.step(acc, row)
        for label in sorted(order):
            yield tuple(a.final() for a in group_accs[label])

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        within = f" within {self.radius}" if self.radius is not None else ""
        return (
            f"SimilarityGroupAround ({len(self.centers)} centres, "
            f"{self.metric}{within})"
        )


class SGB1DAggregate(PhysicalOperator):
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
        self.child = child
        self.kind = kind
        self.separation = separation
        self.diameter = diameter
        self.centers = list(centers)
        ctx = ctx_factory(child.schema)
        self._key_fn = key_expr.bind(ctx)
        self._specs: List[AggSpec] = build_agg_specs(agg_calls, ctx)
        self.schema = Schema(
            [Column(f"__agg{i}", ANY) for i in range(len(agg_calls))]
        )

    def _execute(self) -> Iterator[tuple]:
        spool: List[tuple] = []
        values: List[float] = []
        key_fn = self._key_fn
        bag = self._obs.bag if self._obs is not None else None
        for row in self.child:
            value = key_fn(row)
            if value is None:
                if bag is not None:
                    bag.incr("rows_skipped_null")
                continue
            try:
                values.append(_coordinate(value))
            except (TypeError, ValueError):
                raise ExecutionError(
                    f"1-D similarity grouping attribute must be numeric, "
                    f"got {value!r}"
                ) from None
            spool.append(row)
            if bag is not None:
                bag.incr("rows_spooled")
        if self.kind == "segment":
            result = sgb_segment(values, self.separation, self.diameter)
        else:
            result = sgb_around(values, self.centers, self.diameter)

        specs = self._specs
        group_accs: dict = {}
        order: List[int] = []
        for j, (row, label) in enumerate(zip(spool, result.labels)):
            self._checkpoint(j)  # buffering loop: no per-row node edge
            if label < 0:
                continue
            accs = group_accs.get(label)
            if accs is None:
                accs = [s.new_accumulator() for s in specs]
                group_accs[label] = accs
                order.append(label)
            for spec, acc in zip(specs, accs):
                spec.step(acc, row)
        for label in sorted(order):
            yield tuple(a.final() for a in group_accs[label])

    def children(self) -> Tuple[PhysicalOperator, ...]:
        return (self.child,)

    def describe(self) -> str:
        if self.kind == "segment":
            extra = f"separation={self.separation}"
            if self.diameter is not None:
                extra += f" diameter={self.diameter}"
        else:
            extra = f"around {len(self.centers)} centre(s)"
            if self.diameter is not None:
                extra += f" diameter={self.diameter}"
        return f"SimilarityGroupBy1D ({extra})"
