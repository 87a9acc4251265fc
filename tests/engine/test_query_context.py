"""Every entry point is the same run.

``query`` / ``execute`` / ``analyze`` / ``explain_analyze`` and the
``EXPLAIN ANALYZE`` statement all go through ``Database._run_select``
with one per-statement :class:`~repro.obs.QueryContext`; they differ only
in the flags of that context and in which rendering of the run they hand
back.  So for one statement, whichever way it is submitted: same rows,
one more query counted, one query-log record with the same fingerprint,
the same counters in the cumulative bag, the same span tree, and the
same typed error once the caller's token trips.
"""

import functools
import re
import time

import pytest

from repro.core.cancel import CancelToken
from repro.engine.executor.base import PhysicalOperator
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs import QueryContext
from repro.obs.explain import UNBOUND
from repro.obs.export import parse_prometheus_text
from repro.sql.parser import parse
from tests.engine.test_trace_integration import (
    PARTITIONED_SQL,
    make_db,
    span_tree,
)

OTHER_SQL = "SELECT count(*) FROM pts WHERE part = 1"

#: entry point -> (rows or None, EXPLAIN ANALYZE text or None)
ENTRY_POINTS = {
    "query": lambda db, sql, **kw: (db.query(sql, **kw).rows, None),
    "execute": lambda db, sql, **kw: (db.execute(sql, **kw).rows, None),
    "analyze": lambda db, sql, **kw: (
        lambda res: (res.rows, res.plan_text))(db.analyze(sql, **kw)),
    "explain_analyze": lambda db, sql: (None, db.explain_analyze(sql)),
    "EXPLAIN ANALYZE": lambda db, sql, **kw: (None, "\n".join(
        row[0] for row in db.execute("EXPLAIN ANALYZE " + sql, **kw).rows)),
}
#: The ones that keep per-node metrics even with tracing off.
ANALYZING = ("analyze", "explain_analyze", "EXPLAIN ANALYZE")


def work_counters(db):
    """The cumulative SGB / executor counters and the query count."""
    return {
        name: value
        for (name, _labels), value in
        parse_prometheus_text(db.metrics_snapshot()).items()
        if name.startswith(("repro_sgb_", "repro_exec_", "repro_queries"))
    }


def goes_through_recorder(node):
    """Does iterating ``node`` hand back ``QueryContext.record``'s
    generator (rather than ``_execute``'s own iterator)?"""
    code = getattr(iter(node), "gi_code", None)
    return code is QueryContext.record.__code__


def nodes_of(plan):
    yield plan
    for child in plan.children():
        yield from nodes_of(child)


@functools.lru_cache(maxsize=None)
def outcome(entry, trace):
    """Submit PARTITIONED_SQL once through ``entry`` on a fresh database."""
    db = make_db(trace=trace)
    db.set_query_log(True)
    rows, text = ENTRY_POINTS[entry](db, PARTITIONED_SQL)
    return {
        "rows": rows,
        "text": text,
        "counters": work_counters(db),
        "spans": span_tree(db.tracer) if trace else None,
        "log": [r.fingerprint for r in db.query_log.recent()],
        "db": db,
    }


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
class TestEveryEntryPointIsTheSameRun:
    def test_same_rows(self, entry, trace):
        got = outcome(entry, trace)
        expected = outcome("query", trace)["rows"]
        assert expected == outcome("query", False)["rows"]
        if got["rows"] is not None:
            assert got["rows"] == expected
        if got["text"] is not None:
            root = got["text"].splitlines()[0]
            assert f"actual rows={len(expected)} " in root

    def test_counted_and_logged_once(self, entry, trace):
        got = outcome(entry, trace)
        assert got["counters"]["repro_queries_total"] == 1
        assert got["log"] == outcome("query", trace)["log"]
        assert len(got["log"]) == 1

    def test_same_node_counters(self, entry, trace):
        got = outcome(entry, trace)["counters"]
        # Collected by whoever collects: every entry point when tracing,
        # the analyzing ones regardless.
        reference = outcome("analyze", False)["counters"]
        assert reference["repro_exec_rows_spooled_total"] == 120
        if trace or entry in ANALYZING:
            assert got == reference
        else:
            assert not any(v for k, v in got.items()
                           if k != "repro_queries_total")

    def test_same_span_tree(self, entry, trace):
        got = outcome(entry, trace)
        if not trace:
            assert got["db"].tracer is None
            return
        assert got["spans"] == outcome("query", True)["spans"]
        (root,) = got["spans"]
        assert root[0] == "query"

    def test_nothing_left_behind(self, entry, trace):
        db = outcome(entry, trace)["db"]
        before = work_counters(db)
        plan = db._planner().plan_query(parse(OTHER_SQL)[0])
        assert all(node._ctx is UNBOUND for node in nodes_of(plan))
        assert not UNBOUND.nodes
        db.set_trace(False)
        assert db.query(OTHER_SQL).rows == [(30,)]
        after = work_counters(db)
        assert after.pop("repro_queries_total") == \
            before.pop("repro_queries_total") + 1
        assert after == before
        db.set_trace(trace)


class TestUnboundPlanRunsBare:
    def test_rows_and_child_iteration_bypass_the_recorder(self):
        db = make_db(trace=True)
        plan = db._planner().plan_query(parse(PARTITIONED_SQL)[0])
        sgb = next(n for n in nodes_of(plan) if hasattr(n, "eps"))
        assert not goes_through_recorder(plan)
        assert not goes_through_recorder(sgb.children()[0])
        assert sum(1 for _ in sgb.children()[0]) == 120
        assert plan.rows() == db.query(PARTITIONED_SQL).rows
        assert all(node._ctx is UNBOUND for node in nodes_of(plan))
        # ... and nothing of the bare runs reached the tracer.
        assert [r.name for r in db.tracer.records()].count("query") == 1

    def test_idle_context_does_not_wrap(self):
        class Leaf(PhysicalOperator):
            def _execute(self):
                yield (1,)

        leaf = Leaf()
        QueryContext().bind(leaf)
        assert not goes_through_recorder(leaf)
        # A token alone wraps nothing either: the nodes check it.
        QueryContext(cancel=CancelToken()).bind(leaf)
        assert not goes_through_recorder(leaf)
        QueryContext(collect=True).bind(leaf)
        assert goes_through_recorder(leaf)


class TestObservabilityOffLeavesNothingOnThePlan:
    """"Off is free", as structure rather than a wall-clock ratio: with
    tracing off a statement's context holds no recorder, no
    ``NodeMetrics`` and no bag, so every node hands back ``_execute``'s
    own iterator — and the context has no slot to carry anything else."""

    def test_untraced_statement_allocates_no_node_metrics(self):
        db = make_db(trace=False)
        plan = db._planner().plan_query(parse(PARTITIONED_SQL)[0])
        ctx = db._context(None)
        ctx.bind(plan)
        assert ctx.nodes == {} and not ctx.collect
        assert ctx.tracer is None
        assert all(ctx.bag_of(node) is None for node in nodes_of(plan))
        assert not any(goes_through_recorder(n) for n in nodes_of(plan))

    def test_context_carries_four_things(self):
        assert QueryContext.__slots__ == (
            "cancel", "tracer", "collect", "nodes")


#: 120 rows x 10 ms under the SGB node: ~1.2 s of spooling if left alone.
SLOW_SPOOL_SQL = (
    "SELECT count(*) FROM (SELECT x, y, sleep(0.01) AS s FROM pts) q "
    "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
)
CANCELLABLE = [e for e in ENTRY_POINTS if e != "explain_analyze"]


@pytest.mark.parametrize("entry", CANCELLABLE)
class TestEveryEntryPointHonoursTheToken:
    """EXPLAIN ANALYZE used to run to completion holding the statement
    lock whatever the token said, and ``analyze()`` took no token."""

    def test_already_cancelled(self, entry):
        db = make_db(trace=False)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            ENTRY_POINTS[entry](db, SLOW_SPOOL_SQL, cancel=token)

    def test_deadline_expires_mid_spool(self, entry):
        db = make_db(trace=False)
        token = CancelToken.with_timeout(0.05)
        t0 = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            ENTRY_POINTS[entry](db, SLOW_SPOOL_SQL, cancel=token)
        assert time.monotonic() - t0 < 0.6
        # The statement lock was released on the way out.
        assert db.query(OTHER_SQL).rows == [(30,)]

    def test_cancelled_run_still_counts_and_merges(self, entry):
        db = make_db(trace=False)
        with pytest.raises(QueryTimeoutError):
            ENTRY_POINTS[entry](db, SLOW_SPOOL_SQL,
                                cancel=CancelToken.with_timeout(0.05))
        assert work_counters(db)["repro_queries_total"] == 1


def test_explain_analyze_text_is_a_rendering_of_the_record():
    db = make_db(trace=False)
    result = db.analyze(PARTITIONED_SQL)
    lines = result.plan_text.splitlines()

    def walk(rec):
        yield rec
        for child in rec.get("children", ()):
            yield from walk(child)

    headers = [l for l in lines if l.lstrip().startswith("->")]
    records = list(walk(result.metrics))
    assert len(headers) == len(records)
    for header, rec in zip(headers, records):
        assert rec["node"] in header
        assert f"({rec['estimate']})" in header
        assert re.search(rf"actual rows={rec['rows']} loops={rec['loops']},",
                         header)
    assert result.node_counters()["rows_spooled"] == 120


def test_sort_pass_covers_its_child():
    """``Sort`` drains and sorts inside its own pass: its time includes
    its child's and its span is the child's parent.  It used to sort
    when its parent asked for an iterator, before its own recorder
    started, so EXPLAIN ANALYZE read ~0 ms for the sort and the child's
    span hung off the node above it."""
    db = make_db(trace=True)
    db.tracer.clear()
    result = db.analyze("SELECT x FROM pts WHERE part < 3 ORDER BY x DESC")
    (sort,) = [rec for rec in _records(result.metrics)
               if rec["node"].startswith("Sort")]
    (child,) = sort["children"]
    assert child["rows"] == 90
    assert sort["time_ms"] >= child["time_ms"]
    spans = {r.span_id: r for r in db.tracer.records()}
    (filt,) = [r for r in spans.values() if r.name.startswith("Filter")]
    assert spans[filt.parent_id].name.startswith("Sort")


def _records(rec):
    yield rec
    for child in rec.get("children", ()):
        yield from _records(child)
