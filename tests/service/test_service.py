"""End-to-end service tests: wire protocol, sessions, metrics, shell.

Every test runs against a real :class:`ServerThread` on an ephemeral
port — the same harness the benchmark uses — so these exercise the full
asyncio server, scheduler, and sync client stack.
"""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine.database import Database, StatementResult
from repro.engine.shell import Shell
from repro.errors import (
    CatalogError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs.export import parse_prometheus_text
from repro.service import ServerThread, ServiceClient, ServiceConfig

SGB_SQL = (
    "SELECT count(*) FROM pts "
    "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
)
PARTITION_SQL = (
    "SELECT city, count(*) FROM pts "
    "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY city"
)


def make_db() -> Database:
    db = Database()
    db.execute("CREATE TABLE pts (city int, x float, y float)")
    rows = []
    for city in range(3):
        for i in range(20):
            rows.append((city, city * 50 + (i % 5) * 0.3, (i % 4) * 0.3))
    db.insert("pts", rows)
    return db


@pytest.fixture(scope="module")
def server():
    with ServerThread(db=make_db()) as s:
        yield s


@pytest.fixture
def client(server):
    c = ServiceClient(port=server.port)
    yield c
    c.close()


class TestProtocolBasics:
    def test_hello_handshake(self, server):
        with ServiceClient(port=server.port) as a, \
                ServiceClient(port=server.port) as b:
            assert a.protocol == 1
            assert a.session_id != b.session_id  # per-session ids

    def test_ping(self, client):
        assert client.ping() is True

    def test_query_matches_direct_execution(self, server, client):
        for sql in ("SELECT city, x, y FROM pts ORDER BY x, y, city",
                    SGB_SQL, PARTITION_SQL):
            direct = server.db.query(sql)
            remote = client.query(sql)
            assert remote.columns == direct.columns
            assert remote.rows == direct.rows

    def test_execute_ddl_dml(self, client):
        created = client.execute("CREATE TABLE tmp_svc (v float)")
        assert isinstance(created, StatementResult)
        assert created.status == "CREATE TABLE"
        inserted = client.execute("INSERT INTO tmp_svc VALUES (1), (2)")
        assert inserted.status == "INSERT 2"
        assert client.query("SELECT count(*) FROM tmp_svc").scalar() == 2
        client.execute("DROP TABLE tmp_svc")

    def test_explain(self, server, client):
        assert client.explain(SGB_SQL) == server.db.explain(SGB_SQL)

    def test_typed_errors_cross_the_wire(self, client):
        with pytest.raises(CatalogError, match="does not exist"):
            client.query("SELECT * FROM no_such_table")

    def test_malformed_line_gets_error_response(self, server):
        c = ServiceClient(port=server.port)
        try:
            c._sock.sendall(b"this is not json\n")
            with pytest.raises(ServiceError, match="malformed"):
                c.wait("never")
        finally:
            c.close()

    def test_unknown_op_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown op"):
            client.call("teleport")

    def test_pipelined_responses_resolve_by_id(self, client):
        # Fire three requests before reading any response.
        rids = [client.request("query", sql=SGB_SQL) for _ in range(3)]
        # Wait in reverse submission order: the stash must hold earlier
        # responses until their ids are asked for.
        for rid in reversed(rids):
            assert client.wait(rid)["ok"] is True

    def test_stream_snapshot_op(self, server):
        server.db.create_stream_view(
            "svc_view", "pts", ["x", "y"], "any", eps=1.0
        )
        try:
            with ServiceClient(port=server.port) as c:
                snap = c.stream_snapshot("svc_view")
            assert snap["n_points"] == 60
            assert snap["n_groups"] >= 3
            assert len(snap["labels"]) == 60
            assert sum(snap["group_sizes"]) == 60
        finally:
            server.db.drop_stream_view("svc_view")


class TestConnectionCap:
    def test_connections_beyond_cap_get_typed_refusal(self):
        config = ServiceConfig(port=0, metrics_port=None,
                               max_connections=2)
        with ServerThread(db=Database(), config=config) as server:
            a = ServiceClient(port=server.port)
            b = ServiceClient(port=server.port)
            try:
                with pytest.raises(ServiceOverloadedError,
                                   match="connection refused"):
                    ServiceClient(port=server.port)
                # Existing sessions keep working...
                assert a.ping() and b.ping()
            finally:
                a.close()
                b.close()
            # ...and closed slots open up again.
            deadline = time.monotonic() + 5.0
            while True:
                try:
                    with ServiceClient(port=server.port) as c:
                        assert c.ping()
                    break
                except ServiceOverloadedError:
                    # Server-side close bookkeeping races the client's
                    # close() return; retry briefly.
                    if time.monotonic() >= deadline:
                        raise
                    time.sleep(0.01)
            text = server.service.metrics_text()
            assert "repro_service_connections_refused_total 1" in text


class TestMixedLoad:
    N_CLIENTS = 10
    QUERIES = [
        SGB_SQL,
        PARTITION_SQL,
        "SELECT count(*) FROM pts",
        "SELECT city, x FROM pts ORDER BY x, y, city LIMIT 5",
    ]

    def test_ten_clients_zero_drops_and_exact_results(self, server):
        expected = {sql: server.db.query(sql).rows for sql in self.QUERIES}
        failures = []
        connected = []
        barrier = threading.Barrier(self.N_CLIENTS)

        def worker(worker_id: int) -> None:
            try:
                with ServiceClient(port=server.port) as c:
                    connected.append(worker_id)
                    barrier.wait(timeout=10.0)
                    for round_no in range(3):
                        sql = self.QUERIES[
                            (worker_id + round_no) % len(self.QUERIES)
                        ]
                        got = c.query(sql).rows
                        if got != expected[sql]:
                            failures.append(
                                (worker_id, sql, got[:3], "mismatch")
                            )
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                failures.append((worker_id, type(exc).__name__, str(exc)))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not failures, failures
        assert len(connected) == self.N_CLIENTS  # zero dropped connections


class TestMetricsEndpoints:
    def test_metrics_op_and_http_agree_on_series(self, server, client):
        client.query(SGB_SQL)
        wire_text = client.metrics()
        url = f"http://127.0.0.1:{server.metrics_port}/metrics"
        with urllib.request.urlopen(url) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            http_text = resp.read().decode("utf-8")
        assert set(parse_prometheus_text(wire_text)) == \
            set(parse_prometheus_text(http_text))

    def test_key_series_present_and_parseable(self, server, client):
        client.query(SGB_SQL)
        parsed = parse_prometheus_text(client.metrics())
        # Service-level counters and gauges.
        assert parsed[("repro_service_requests_total", ())] >= 1
        assert parsed[("repro_service_completed_total", ())] >= 1
        assert ("repro_service_rejected_total", ()) in parsed
        assert ("repro_service_queue_depth", ()) in parsed
        assert ("repro_service_inflight", ()) in parsed
        assert parsed[("repro_service_sessions_active", ())] >= 1
        # Latency histograms: count, sum, and at least the +Inf bucket.
        for hist in ("queue_wait", "exec", "request"):
            prefix = f"repro_service_{hist}_latency_seconds"
            assert parsed[(f"{prefix}_count", ())] >= 1
            assert parsed[(f"{prefix}_sum", ())] >= 0.0
            assert parsed[
                (f"{prefix}_bucket", (("le", "+Inf"),))
            ] >= 1
        # The engine snapshot rides along in the same payload.
        assert parsed[
            ("repro_queries_total", ())
        ] >= 1

    def test_http_unknown_path_is_404(self, server):
        url = f"http://127.0.0.1:{server.metrics_port}/else"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url)
        assert err.value.code == 404


class TestStatusEndpoint:
    def fetch_status(self, server):
        import json

        url = f"http://127.0.0.1:{server.metrics_port}/status"
        with urllib.request.urlopen(url) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "application/json")
            return json.loads(resp.read().decode("utf-8"))

    def test_basic_shape_with_observability_off(self, server, client):
        client.query(SGB_SQL)
        status = self.fetch_status(server)
        assert status["server"] == "repro.service"
        assert status["uptime_s"] >= 0
        assert status["sessions"] >= 1
        assert status["scheduler"]["queue_depth"] >= 0
        assert status["scheduler"]["inflight"] >= 0
        assert status["trace"] == {"enabled": False}
        assert set(status) == {"server", "version", "uptime_s", "sessions",
                               "scheduler", "trace", "query_log"}
        assert status["query_log"] == {"enabled": False}

    def test_reports_trace_buffer_and_slow_query_ring(self):
        db = make_db()
        db.set_trace(True)
        db.set_query_log(True)
        with ServerThread(db=db) as server:
            with ServiceClient(port=server.port) as c:
                c.query(SGB_SQL)
                c.query(PARTITION_SQL)
            status = self.fetch_status(server)
        assert status["trace"]["enabled"] is True
        assert status["trace"]["spans_retained"] > 0
        ql = status["query_log"]
        assert ql["enabled"] is True
        assert ql["recorded"] == 2
        slow = ql["slow_queries"]
        assert len(slow) == 2
        assert {q["sql"] for q in slow} == {SGB_SQL, PARTITION_SQL}
        assert all(q["latency_ms"] > 0 for q in slow)


class TestTracing:
    def test_service_spans_ingested_with_parenting(self):
        db = make_db()
        db.set_trace(True)
        with ServerThread(db=db) as server:
            with ServiceClient(port=server.port) as c:
                c.query(SGB_SQL)
        spans = {r.span_id: r for r in db.tracer.records()}
        requests = [
            r for r in spans.values() if r.name == "service_request"
        ]
        assert len(requests) == 1
        root = requests[0]
        assert root.parent_id == ""
        assert root.attrs["op"] == "query"
        children = [
            r for r in spans.values() if r.parent_id == root.span_id
        ]
        names = sorted(c.name for c in children)
        assert names == ["service_exec", "service_queue"]
        for child in children:
            assert root.start_s <= child.start_s + 1e-6
            assert child.end_s <= root.end_s + 1e-6
        # The engine's own query span was recorded too (separate root).
        assert any(r.name == "query" for r in spans.values())


class TestShellConnect:
    def test_connect_routes_statements_over_the_wire(self, server):
        shell = Shell(db=Database())  # local db stays empty
        out = shell.feed(f"\\connect 127.0.0.1 {server.port}")
        assert "Connected" in out and "session" in out
        table = shell.feed("SELECT count(*) FROM pts;")
        assert "60" in table  # served by the remote db, not the local one
        plan = shell.feed(f"\\e {SGB_SQL}")
        assert "SGB" in plan or "->" in plan
        metrics = shell.feed("\\metrics")
        assert "repro_service_requests_total" in metrics
        out = shell.feed("\\disconnect")
        assert "Disconnected" in out
        assert "ERROR" in shell.feed("SELECT count(*) FROM pts;")

    def test_connect_failure_is_reported_not_raised(self):
        shell = Shell(db=Database())
        out = shell.feed("\\connect 127.0.0.1 1")  # nothing listens there
        assert out.startswith("ERROR: could not connect")
        assert shell.client is None
