"""Deadlines and cancellation through the full service stack.

All timing here leans on the ``sleep(s)`` scalar (one sleep per input
row), which makes query duration proportional to row count — slow enough
to cancel reliably, fast enough to keep the suite quick.
"""

import time

import pytest

from repro.engine.database import Database
from repro.errors import QueryCancelledError, QueryTimeoutError
from repro.obs.export import parse_prometheus_text
from repro.service import ServerThread, ServiceClient, ServiceConfig

#: ~40 rows x 0.2 s/row = ~8 s if allowed to run to completion.
SLOW_SQL = "SELECT sum(sleep(0.2)) FROM pts"
FAST_SQL = "SELECT count(*) FROM pts"


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE pts (x float, y float)")
    db.insert("pts", [(float(i % 7), float(i % 5)) for i in range(40)])
    return db


@pytest.fixture
def server():
    with ServerThread(db=make_db()) as s:
        yield s


class TestDeadlines:
    def test_deadline_exceeded_returns_typed_timeout(self, server):
        with ServiceClient(port=server.port) as c:
            t0 = time.monotonic()
            with pytest.raises(QueryTimeoutError, match="deadline"):
                c.query(SLOW_SQL, timeout_s=0.5)
            # Aborted at the deadline, nowhere near the ~8 s full run.
            assert time.monotonic() - t0 < 5.0

    def test_other_session_completes_while_one_times_out(self, server):
        expected = server.db.query(FAST_SQL).rows
        with ServiceClient(port=server.port) as slow, \
                ServiceClient(port=server.port) as fast:
            slow_rid = slow.request("query", sql=SLOW_SQL, timeout_s=0.5)
            # The fast session queues behind the statement lock; it must
            # still come back correct once the doomed query aborts.
            assert fast.query(FAST_SQL, timeout_s=30.0).rows == expected
            with pytest.raises(QueryTimeoutError):
                slow.wait(slow_rid)

    def test_server_default_deadline_applies(self):
        config = ServiceConfig(port=0, metrics_port=None,
                               default_timeout_s=0.5)
        with ServerThread(db=make_db(), config=config) as server:
            with ServiceClient(port=server.port) as c:
                with pytest.raises(QueryTimeoutError):
                    c.query(SLOW_SQL)  # no client-side timeout_s needed

    def test_timeout_counted_in_service_metrics(self, server):
        with ServiceClient(port=server.port) as c:
            with pytest.raises(QueryTimeoutError):
                c.query(SLOW_SQL, timeout_s=0.3)
            parsed = parse_prometheus_text(c.metrics())
            assert parsed[("repro_service_timeouts_total", ())] == 1
            assert parsed[("repro_service_completed_total", ())] >= 0


class TestExplainAnalyzeOverTheWire:
    """``execute "EXPLAIN ANALYZE ..."`` used to ignore its deadline: it
    ran to completion holding the statement lock and came back ok."""

    #: All-pairs SGB-All over 1500 points: seconds if it ran to the end.
    HEAVY_SQL = (
        "EXPLAIN ANALYZE SELECT count(*) FROM big GROUP BY x, y "
        "DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP ELIMINATE"
    )

    @pytest.fixture
    def heavy_server(self):
        db = Database(sgb_all_strategy="all-pairs")
        db.execute("CREATE TABLE big (x float, y float, pad float)")
        db.insert("big", [(float(i % 61) * 0.31, float(i % 67) * 0.29,
                           float(i)) for i in range(1500)])
        with ServerThread(db=db) as s:
            yield s

    def test_timeout_returned_and_worker_slot_reclaimed(self, heavy_server):
        with ServiceClient(port=heavy_server.port) as c:
            with pytest.raises(QueryTimeoutError, match="deadline"):
                c.execute(self.HEAVY_SQL, timeout_s=0.05)
            # Same session, same workers: the slot and the statement
            # lock are free again for the next statement.
            t0 = time.monotonic()
            assert c.query("SELECT count(*) FROM big").rows == [(1500,)]
            assert time.monotonic() - t0 < 5.0
            parsed = parse_prometheus_text(c.metrics())
            assert parsed[("repro_service_timeouts_total", ())] == 1
            assert parsed[("repro_service_inflight", ())] == 0.0

    def test_cheap_explain_analyze_still_answers(self, server):
        with ServiceClient(port=server.port) as c:
            plan = c.execute("EXPLAIN ANALYZE " + FAST_SQL, timeout_s=30.0)
            assert plan.columns == ["QUERY PLAN"]
            assert "actual rows=1 " in plan.rows[0][0]


class TestClientCancel:
    def test_cancel_mid_query_raises_typed_error(self, server):
        with ServiceClient(port=server.port) as c:
            rid = c.request("query", sql=SLOW_SQL)
            time.sleep(0.3)  # let it reach the engine
            assert c.cancel(rid) is True
            t0 = time.monotonic()
            with pytest.raises(QueryCancelledError, match="cancelled"):
                c.wait(rid)
            assert time.monotonic() - t0 < 5.0

    def test_cancel_unknown_request_id_is_false(self, server):
        with ServiceClient(port=server.port) as c:
            assert c.cancel("no-such-request") is False

    def test_worker_slot_reclaimed_after_cancel(self, server):
        expected = server.db.query(FAST_SQL).rows
        with ServiceClient(port=server.port) as c:
            rid = c.request("query", sql=SLOW_SQL)
            time.sleep(0.2)
            assert c.cancel(rid)
            with pytest.raises(QueryCancelledError):
                c.wait(rid)
            # Same session, same workers: the slot freed by the cancelled
            # query serves the next statement promptly and correctly.
            t0 = time.monotonic()
            assert c.query(FAST_SQL).rows == expected
            assert time.monotonic() - t0 < 5.0
            parsed = parse_prometheus_text(c.metrics())
            assert parsed[("repro_service_cancelled_total", ())] == 1
            assert parsed[("repro_service_inflight", ())] == 0.0


class TestDisconnectCleanup:
    def test_disconnect_cancels_inflight_queries(self, server):
        doomed = ServiceClient(port=server.port)
        doomed.request("query", sql=SLOW_SQL)
        time.sleep(0.3)  # in the engine by now, holding the lock
        doomed.close()   # hang up without waiting
        # The disconnect trips the token, so the lock frees well before
        # the ~8 s the slow query would otherwise hold it.
        expected = server.db.query  # bound method; direct call below
        with ServiceClient(port=server.port) as c:
            t0 = time.monotonic()
            rows = c.query(FAST_SQL, timeout_s=30.0).rows
            assert time.monotonic() - t0 < 5.0
        assert rows == expected(FAST_SQL).rows
        deadline = time.monotonic() + 5.0
        while True:  # response-task cleanup races the close; poll briefly
            parsed = parse_prometheus_text(server.service.metrics_text())
            if parsed[("repro_service_cancelled_total", ())] >= 1 \
                    and parsed[("repro_service_sessions_active", ())] == 0.0:
                break
            if time.monotonic() >= deadline:
                raise AssertionError(f"cleanup never settled: {parsed}")
            time.sleep(0.05)
