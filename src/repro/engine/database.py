"""The Database facade: tables + SQL execution.

>>> from repro import Database
>>> db = Database()
>>> db.execute("CREATE TABLE pts (x float, y float)")
StatementResult(status='CREATE TABLE')
>>> db.execute("INSERT INTO pts VALUES (1, 1), (1.5, 1.2), (9, 9)")
StatementResult(status='INSERT 3')
>>> db.execute(
...     "SELECT count(*) FROM pts "
...     "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
... ).rows
[(2,), (1,)]
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.cancel import CancelToken
from repro.engine.catalog import Catalog
from repro.engine.executor.sgb import SGBConfig
from repro.engine.rwlock import RWLock
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.errors import CatalogError, InvalidParameterError, PlanningError
from repro.obs.explain import (
    AnalyzeResult,
    QueryContext,
    plan_metrics,
    render_analyze,
)
from repro.obs.metrics import MetricBag
from repro.obs.querylog import QueryLog
from repro.obs.trace import Tracer, maybe_span
from repro.sql import ast_nodes as ast
from repro.sql.parser import parse
from repro.sql.planner import Planner


class QueryResult:
    """Materialized result of a SELECT."""

    def __init__(self, columns: List[str], rows: List[tuple]):
        self.columns = columns
        self.rows = rows

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise InvalidParameterError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def __repr__(self) -> str:
        return f"QueryResult({self.columns}, {len(self.rows)} rows)"


class StatementResult:
    """Result of a DDL/DML statement."""

    def __init__(self, status: str):
        self.status = status

    def __repr__(self) -> str:
        return f"StatementResult(status={self.status!r})"


class Database:
    """An embedded relational database with similarity GROUP BY support.

    Parameters configure how the SGB executor node runs (they correspond to
    the algorithm choices evaluated in the paper):

    ``sgb_all_strategy`` / ``sgb_any_strategy``
        ``"auto"`` (default) runs, in each partition, the strategy the
        chooser ranks cheapest for that partition's point count and, when
        ``ANALYZE`` histograms cover the grouping columns, its density; a
        concrete name — ``"all-pairs"`` | ``"bounds-checking"`` |
        ``"index"`` | ``"graph"`` for All, ``"all-pairs"`` | ``"index"`` |
        ``"grid"`` for Any — is an override that always wins.  For a given input order and
        ``tiebreak``/``seed`` every strategy produces bit-identical
        groups, so the knob only moves time around.
    ``tiebreak`` / ``seed``
        JOIN-ANY arbitration, see :class:`~repro.core.sgb_all.SGBAllOperator`.
    ``trace``
        Start with hierarchical span tracing enabled (see
        :meth:`set_trace`).  Traced SELECTs carry the tracer in their
        query context — every plan node, SGB strategy phase, and
        partition emits a span into :attr:`tracer`, and per-node
        counters/histograms fold into the cumulative bag behind
        :meth:`metrics_snapshot`.
    ``query_log``
        ``True`` (in-memory ring only), a path (append JSONL there too),
        or a pre-built :class:`~repro.obs.querylog.QueryLog`.  Every
        SELECT records plan fingerprint, chosen strategy, estimated vs
        actual rows, and latency; estimate drift outside the log's band
        is flagged (see :meth:`set_query_log`).

    Concurrent callers share one statement lock (:class:`RWLock`).
    SELECT/UNION, EXPLAIN [ANALYZE], :meth:`explain`, :meth:`analyze`,
    :meth:`table`, :meth:`stream_view` and :meth:`stream_view_names`
    hold it shared and run beside each other; every write — INSERT,
    DDL, ANALYZE, stream snapshots, :meth:`set_trace` — holds it
    exclusive.  A reader arriving while a writer waits queues behind it.
    Public methods take the lock; private helpers assume it is held, and
    the lock refuses re-entry.
    """

    def __init__(
        self,
        sgb_all_strategy: str = "auto",
        sgb_any_strategy: str = "auto",
        tiebreak: str = "random",
        seed: int = 0,
        trace: bool = False,
        query_log: Union[None, bool, str, QueryLog] = None,
    ):
        self.catalog = Catalog()
        self.sgb_config = SGBConfig(
            all_strategy=sgb_all_strategy,
            any_strategy=sgb_any_strategy,
            tiebreak=tiebreak,
            seed=seed,
        )
        self._stream_views: Dict[str, Any] = {}
        #: Statement lock: reads hold it shared, writes exclusive, so
        #: the catalog, table storage and stream-view state see either
        #: any number of readers or a single writer (see the class
        #: docstring for the mode of every entry point).
        self._lock = RWLock()
        #: Guards the cumulative metric bag and query counter only, so
        #: ``metrics_snapshot()`` never has to wait behind a long query
        #: holding the statement lock.  Lock order: ``_lock`` may be held
        #: when taking ``_metrics_lock``, never the reverse.
        self._metrics_lock = threading.Lock()
        #: Cumulative engine metrics (counters / histograms)
        #: collected from every collecting execution — traced SELECTs,
        #: ``analyze()`` / EXPLAIN ANALYZE runs, and streaming micro-batch
        #: flushes.
        self._metrics = MetricBag()
        self._queries = 0
        #: The database's tracer; ``None`` until tracing is first enabled,
        #: then kept (with its ring buffer) across :meth:`set_trace`
        #: toggles so a dump after ``set_trace(False)`` still works.
        self.tracer: Optional[Tracer] = None
        self._trace_on = False
        #: The query log; ``None`` until enabled via the ``query_log``
        #: ctor parameter or :meth:`set_query_log`.
        self.query_log: Optional[QueryLog] = None
        self._query_log_on = False
        if trace:
            self.set_trace(True)
        if query_log is not None and query_log is not False:
            if isinstance(query_log, QueryLog):
                self.query_log = query_log
                self._query_log_on = True
            elif query_log is True:
                self.set_query_log(True)
            else:
                self.set_query_log(True, path=str(query_log))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return self._trace_on

    def _live_tracer(self) -> Optional[Tracer]:
        """The tracer while tracing is on, else None."""
        return self.tracer if self._trace_on else None

    def set_trace(self, enabled: bool = True) -> None:
        """Toggle span tracing for subsequent SELECTs and stream flushes.

        While enabled, every SELECT's query context carries the database
        tracer (so plan nodes, operator phases and partitions emit
        spans) and so does every attached stream view's micro-batcher.
        Disabling keeps the buffered spans, so :meth:`export_trace` still
        works.
        """
        with self._lock.exclusive():
            if enabled and self.tracer is None:
                self.tracer = Tracer()
            self._trace_on = bool(enabled)
            for view in self._stream_views.values():
                view.batcher.tracer = self._live_tracer()

    def export_trace(self, path: str) -> int:
        """Dump buffered spans to ``path``; returns the span count.

        A ``.jsonl`` suffix selects one-record-per-line JSON; anything
        else gets the Chrome ``trace_event`` payload (Perfetto-loadable).
        """
        if self.tracer is None:
            raise PlanningError(
                "tracing was never enabled on this Database"
            )
        if str(path).endswith(".jsonl"):
            return self.tracer.to_jsonl(path)
        return self.tracer.to_chrome_trace_file(path)

    @property
    def query_log_enabled(self) -> bool:
        return self._query_log_on and self.query_log is not None

    def set_query_log(self, enabled: bool = True, *,
                      path: Optional[str] = None,
                      band: Optional[Tuple[float, float]] = None) -> None:
        """Toggle per-query logging (plan fingerprint, estimates, drift).

        Enabling with a ``path`` (or a new ``band``) replaces the current
        log; enabling with neither keeps the existing one (creating an
        in-memory-only log on first use).  Disabling stops recording and
        closes the JSONL file but keeps the ring buffer, so
        ``query_log.recent()`` and the drift summary still work.
        """
        if enabled:
            if self.query_log is None or path is not None or band is not None:
                if self.query_log is not None:
                    self.query_log.close()
                kwargs: Dict[str, Any] = {"path": path}
                if band is not None:
                    kwargs["band"] = band
                self.query_log = QueryLog(**kwargs)
            self._query_log_on = True
        else:
            self._query_log_on = False
            if self.query_log is not None:
                self.query_log.close()

    def metrics_snapshot(self) -> str:
        """One Prometheus text-format snapshot of the engine's metrics.

        Unifies the cumulative SGB/executor counters and latency
        histograms with per-stream-view counters
        (labelled ``source="stream:<view>"``) and process-level extras
        (queries executed, trace-buffer occupancy).  The full counter and
        histogram vocabulary is always present, zero-valued when unused.
        """
        from repro.obs.export import prometheus_text

        with self._metrics_lock:
            extra: Dict[str, float] = {"queries": float(self._queries)}
            if self.tracer is not None:
                extra["trace_spans_retained"] = float(len(self.tracer))
                extra["trace_spans_dropped"] = float(self.tracer.dropped)
            # One atomic copy (dict -> list runs no Python code): without
            # the statement lock another thread may CREATE/DROP a view
            # mid-scrape, and iterating the live dict would then raise.
            views = list(self._stream_views.items())  # sgblint: disable=SGB007 -- same snapshot-over-consistency tradeoff as below
            return prometheus_text(
                self._metrics,  # sgblint: disable=SGB007 -- deliberately under _metrics_lock only: scrapes must not queue behind a long query holding the statement lock
                streams={
                    name: view.stats  # stats reads are point-in-time
                    for name, view in views
                },
                extra_counters=extra,
            )

    # ------------------------------------------------------------------
    # python-level API
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, columns: Sequence[Tuple[str, str]]
    ) -> Table:
        with self._lock.exclusive():
            return self.catalog.create_table(name, columns)

    def insert(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        with self._lock.exclusive():
            return self.catalog.get(table).insert_many(rows)

    def table(self, name: str) -> Table:
        with self._lock.shared():
            return self.catalog.get(name)

    # ------------------------------------------------------------------
    # streaming views (INSERT-then-requery without recomputing)
    # ------------------------------------------------------------------
    def create_stream_view(
        self,
        name: str,
        table: str,
        columns: Sequence[str],
        mode: str = "any",
        *,
        eps: float,
        metric: str = "l2",
        batch_size: int = 32,
        **engine_options,
    ):
        """Attach an incremental SGB engine to ``table``.

        Existing rows are back-filled immediately; every later INSERT (SQL
        or :meth:`insert`) updates the maintained grouping, so re-querying
        the view is a snapshot read instead of a batch recompute.  Returns
        the :class:`~repro.streaming.view.StreamingGroupView`.
        """
        from repro.streaming.view import StreamingGroupView

        key = name.lower()
        with self._lock.exclusive():
            if key in self._stream_views:
                raise CatalogError(f"stream view {name!r} already exists")
            view = StreamingGroupView(
                key,
                self.catalog.get(table),
                columns,
                mode,
                eps=eps,
                metric=metric,
                batch_size=batch_size,
                metrics=self._metrics,
                tracer=self._live_tracer(),
                **engine_options,
            )
            self._stream_views[key] = view
        return view

    def stream_view(self, name: str):
        with self._lock.shared():
            return self._stream_view(name)

    def _stream_view(self, name: str):
        try:
            return self._stream_views[name.lower()]
        except KeyError:
            raise CatalogError(
                f"stream view {name!r} does not exist"
            ) from None

    def stream_snapshot(self, name: str):
        """A consistent snapshot of one stream view's grouping.

        Taken under the exclusive statement lock: the snapshot flushes
        the view's micro-batcher, so it writes, and concurrent INSERTs
        (which feed the view through the table's insert listeners)
        cannot interleave with it — this is the read path the query
        service's ``stream`` op uses.
        """
        with self._lock.exclusive():
            return self._stream_view(name).snapshot()

    def stream_view_names(self) -> List[str]:
        with self._lock.shared():
            return sorted(self._stream_views)

    def drop_stream_view(self, name: str) -> None:
        with self._lock.exclusive():
            self._drop_stream_view(name)

    def _drop_stream_view(self, name: str) -> None:
        view = self._stream_view(name)
        view.detach()
        del self._stream_views[view.name]

    def _drop_views_of_table(self, table_name: str) -> None:
        doomed = [
            v.name
            for v in self._stream_views.values()
            if v.table.name == table_name.lower()
        ]
        for name in doomed:
            self._drop_stream_view(name)

    # ------------------------------------------------------------------
    # SQL API
    # ------------------------------------------------------------------
    def execute(self, sql: str, *, cancel: Optional[CancelToken] = None):
        """Execute one or more ``;``-separated statements.

        Returns the result of the *last* statement: a :class:`QueryResult`
        for SELECT, a :class:`StatementResult` otherwise.

        Safe under concurrent callers: each statement holds the
        database's statement lock — shared for SELECT/UNION and EXPLAIN
        [ANALYZE], so reads from different threads run side by side;
        exclusive for everything else, so a write runs alone and a
        SELECT sees all of it or none.  Results are fully materialized
        before the lock is released, so nothing lazy escapes it.
        ``cancel`` is an optional
        :class:`~repro.core.cancel.CancelToken`: it is re-checked before
        each statement, while *waiting* for the statement lock, and
        during SELECT execution where rows enter the plan and where they
        multiply (leaf scans and buffers per chunk of rows, join probes
        per stride of candidates, aggregation per column chunk; see
        :mod:`repro.core.cancel`), so a deadline or client cancel
        surfaces as a typed error even when the query is queued behind a
        slow writer.
        """
        result: Any = None
        for stmt in parse(sql):
            if cancel is not None:
                cancel.check()
            shared = _reads_only(stmt)
            self._acquire_statement_lock(cancel, shared=shared)
            try:
                result = self._execute_statement(stmt, cancel, sql=sql)
            finally:
                if shared:
                    self._lock.release_shared()
                else:
                    self._lock.release()
        return result

    def query(self, sql: str, *,
              cancel: Optional[CancelToken] = None) -> QueryResult:
        """Execute a single SELECT and return its result."""
        result = self.execute(sql, cancel=cancel)
        if not isinstance(result, QueryResult):
            raise PlanningError("query() expects a SELECT statement")
        return result

    def _acquire_statement_lock(self, cancel: Optional[CancelToken],
                                shared: bool = False) -> None:
        """Take the statement lock in the given mode, polling the cancel
        token while blocked so a queued query can still time out behind
        a slow one.  The caller owns the lock on return and releases it
        in its ``finally``."""
        poll = None if cancel is None else cancel.check
        if shared:
            self._lock.acquire_shared(poll)
        else:
            self._lock.acquire(poll)

    def explain(self, sql: str) -> str:
        """Render the physical plan of a SELECT (like EXPLAIN)."""
        stmts = parse(sql)
        if len(stmts) != 1 or not isinstance(stmts[0], (ast.Select, ast.Union)):
            raise PlanningError("explain() expects a single SELECT")
        # Plan under the statement lock: planning reads the catalog and
        # table statistics, which a concurrent DDL/INSERT may mutate.
        with self._lock.shared():
            plan = self._planner().plan_query(stmts[0])
            return plan.explain()

    def explain_analyze(self, sql: str) -> str:
        """EXPLAIN with actual row counts and per-operator wall time.

        The plan is executed exactly *once*: a single pass over the root
        drives the whole tree, and each node reports its rows out, loop
        count, and inclusive wall time (children run inside the parent's
        ``next()``, like the inclusive times in PostgreSQL's EXPLAIN
        ANALYZE) plus any SGB counters its operators recorded.
        """
        return self.analyze(sql).plan_text

    def analyze(self, sql: str, *,
                cancel: Optional[CancelToken] = None) -> AnalyzeResult:
        """Run a SELECT collecting per-node metrics and return an
        :class:`~repro.obs.explain.AnalyzeResult` (rows + plan text +
        per-node metrics tree for ``metrics_json()``).  ``cancel`` works
        as in :meth:`execute`.  Holds the statement lock shared, like a
        SELECT."""
        stmts = parse(sql)
        if len(stmts) != 1 or not isinstance(stmts[0], (ast.Select, ast.Union)):
            raise PlanningError("explain_analyze() expects a single SELECT")
        if cancel is not None:
            cancel.check()
        self._acquire_statement_lock(cancel, shared=True)
        try:
            plan = self._planner().plan_query(stmts[0])
            ctx = self._context(cancel, analyze=True)
            rows = self._run_select(plan, ctx, sql)
        finally:
            self._lock.release_shared()
        return AnalyzeResult(plan.schema.names(), rows,
                             plan_metrics(plan, ctx))

    # ------------------------------------------------------------------
    def _planner(self) -> Planner:
        return Planner(self.catalog, self.sgb_config)

    def _context(self, cancel: Optional[CancelToken],
                 analyze: bool = False) -> QueryContext:
        """The query context of one SELECT-shaped statement.

        Every entry point carries the caller's token and the tracer while
        tracing is on; ``analyze`` (the ``analyze()`` /
        ``explain_analyze()`` methods and the EXPLAIN ANALYZE statement)
        additionally keeps per-node metrics even when tracing is off.
        """
        return QueryContext(
            cancel=cancel,
            tracer=self._live_tracer(),
            collect=analyze,
        )

    def _run_select(self, plan, ctx: QueryContext, sql: str) -> List[tuple]:
        """Run a freshly planned SELECT under ``ctx``: the one place a
        plan root is iterated.

        Counts the query, binds the context, materializes the rows
        (inside a root ``query`` span when tracing), folds the node bags
        into the database's cumulative metrics and writes the query log.
        Callers differ only in the context they pass and in what they
        return: the rows, or a rendering of ``plan_metrics(plan, ctx)``,
        the run's plan-shaped record.
        """
        with self._metrics_lock:
            self._queries += 1
        ctx.bind(plan)
        t0 = time.perf_counter()
        try:
            with maybe_span(ctx.tracer, "query", root=plan.describe()) as sp:
                rows = list(plan)
                sp.set(rows=len(rows))
            latency_s = time.perf_counter() - t0
        finally:
            totals = MetricBag()
            for nm in ctx.nodes.values():
                totals.merge(nm.bag)
            with self._metrics_lock:
                self._metrics.merge(totals)
        if self._query_log_on and self.query_log is not None:
            self.query_log.record_query(
                sql, plan_metrics(plan, ctx), actual_rows=len(rows),
                latency_s=latency_s, counters=totals.counters,
            )
        return rows

    def _execute_statement(self, stmt: Any,
                           cancel: Optional[CancelToken] = None,
                           sql: str = ""):
        if isinstance(stmt, (ast.Select, ast.Union)):
            plan = self._planner().plan_query(stmt)
            rows = self._run_select(plan, self._context(cancel), sql)
            return QueryResult(plan.schema.names(), rows)
        if isinstance(stmt, ast.CreateTable):
            self.catalog.create_table(
                stmt.name,
                [(c.name, c.type_name) for c in stmt.columns],
                if_not_exists=stmt.if_not_exists,
            )
            return StatementResult("CREATE TABLE")
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
            self._drop_views_of_table(stmt.name)
            return StatementResult("DROP TABLE")
        if isinstance(stmt, ast.CreateIndex):
            table = self.catalog.get(stmt.table)
            if stmt.if_not_exists and stmt.name.lower() in table.indexes:
                return StatementResult("CREATE INDEX")
            table.create_index(stmt.name, stmt.column)
            return StatementResult("CREATE INDEX")
        if isinstance(stmt, ast.DropIndex):
            self.catalog.get(stmt.table).drop_index(stmt.name)
            return StatementResult("DROP INDEX")
        if isinstance(stmt, ast.Insert):
            return self._execute_insert(stmt)
        if isinstance(stmt, ast.Explain):
            return self._execute_explain(stmt, cancel, sql)
        if isinstance(stmt, ast.Analyze):
            self._update_statistics(stmt.table)
            return StatementResult("ANALYZE")
        raise PlanningError(f"unsupported statement {type(stmt).__name__}")

    def update_statistics(self, table: Optional[str] = None) -> None:
        """Collect table statistics, as the SQL ``ANALYZE`` statement does.

        With ``table`` refreshes that table's stats; without, every table
        in the catalog.  Statistics feed the planner's cardinality and
        cost estimates and the SGB strategy chooser.
        """
        with self._lock.exclusive():
            self._update_statistics(table)

    def _update_statistics(self, table: Optional[str]) -> None:
        if table is not None:
            self.catalog.get(table).analyze()
        else:
            for t in self.catalog:
                t.analyze()

    def _execute_explain(self, stmt: ast.Explain,
                         cancel: Optional[CancelToken],
                         sql: str) -> QueryResult:
        """EXPLAIN [ANALYZE] as a statement: one plan line per result row."""
        plan = self._planner().plan_query(stmt.query)
        if stmt.analyze:
            ctx = self._context(cancel, analyze=True)
            self._run_select(plan, ctx, sql)
            text = render_analyze(plan_metrics(plan, ctx))
        else:
            text = plan.explain()
        return QueryResult(["QUERY PLAN"], [(line,) for line in text.splitlines()])

    def _execute_insert(self, stmt: ast.Insert) -> StatementResult:
        """Evaluate every row once, then append them as one batch: a row
        that fails, in evaluation or in the table's checks, inserts none.
        """
        table = self.catalog.get(stmt.table)
        ctx = ast.BindContext(Schema([]))
        rows = []
        for row_exprs in stmt.rows:
            values = [e.value if type(e) is ast.Literal else e.bind(ctx)(())
                      for e in row_exprs]
            if stmt.columns is not None:
                by_name = dict(zip([c.lower() for c in stmt.columns], values))
                ordered = []
                for col in table.schema:
                    if col.name not in by_name:
                        ordered.append(None)
                    else:
                        ordered.append(by_name.pop(col.name))
                if by_name:
                    raise PlanningError(
                        f"unknown insert columns: {sorted(by_name)}"
                    )
                values = ordered
            rows.append(values)
        return StatementResult(f"INSERT {table.append_rows(rows)}")


def _reads_only(stmt: Any) -> bool:
    """Whether ``stmt`` may run under the shared statement lock."""
    return isinstance(stmt, (ast.Select, ast.Union, ast.Explain))
