"""End-to-end tracing: Database wiring, parallel parity, export, shell.

The load-bearing property is *serial-vs-parallel trace parity*: the same
PARTITION BY query must produce the same span tree (names, nesting, and
phase attributes) whether partitions run in-process or on a worker pool —
workers differ only in the pid stamped on their spans and the extra
``parallel_dispatch`` node that models the fan-out itself.
"""

import json

import pytest

from repro.engine.database import Database
from repro.engine.shell import Shell
from repro.errors import PlanningError
from repro.obs.export import parse_prometheus_text
from repro.obs.metrics import SGB_COUNTER_FIELDS
from repro.obs.trace import validate_chrome_trace

PARTITIONED_SQL = (
    "SELECT part, count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ANY L2 WITHIN 1 PARTITION BY part"
)


def make_db(parallel: int, trace: bool = True, n: int = 120) -> Database:
    db = Database(parallel=parallel, trace=trace)
    db.execute("CREATE TABLE pts (part int, x float, y float)")
    rows = []
    for i in range(n):
        cluster = i % 3
        rows.append((i % 4, cluster * 10.0 + (i % 7) * 0.05,
                     cluster * 10.0 + (i % 5) * 0.05))
    db.insert("pts", rows)
    return db


def span_tree(tracer, prune=("parallel_dispatch",)):
    """Canonical nested shape of a trace, pid-free and order-normalized.

    ``prune`` names are spliced out (their children re-hang on the
    grandparent) — the dispatch node exists only on the parallel path and
    is exactly the difference parity allows.
    """
    records = tracer.records()
    by_id = {r.span_id: r for r in records}

    def effective_parent(r):
        parent = by_id.get(r.parent_id)
        while parent is not None and parent.name in prune:
            parent = by_id.get(parent.parent_id)
        return parent.span_id if parent is not None else ""

    children = {}
    for r in records:
        if r.name in prune:
            continue
        children.setdefault(effective_parent(r), []).append(r)

    def shape(r):
        attrs = {k: v for k, v in r.attrs.items() if k != "pid"}
        kids = sorted(
            (shape(c) for c in children.get(r.span_id, [])),
            key=lambda s: (s[0], sorted(s[1].items())),
        )
        return (r.name, attrs, tuple(kids))

    roots = sorted(
        (shape(r) for r in children.get("", [])),
        key=lambda s: s[0],
    )
    return tuple(roots)


class TestSerialParallelParity:
    def test_span_trees_identical_modulo_dispatch(self):
        serial = make_db(parallel=1)
        parallel = make_db(parallel=2)
        rows_serial = serial.query(PARTITIONED_SQL).rows
        rows_parallel = parallel.query(PARTITIONED_SQL).rows
        assert rows_serial == rows_parallel
        assert span_tree(serial.tracer) == span_tree(parallel.tracer)

    def test_parallel_spans_cross_process_boundary(self):
        db = make_db(parallel=2)
        db.query(PARTITIONED_SQL)
        main_pid = db.tracer.pid
        partition_pids = {r.pid for r in db.tracer.records()
                          if r.name == "partition"}
        assert partition_pids and main_pid not in partition_pids

    def test_worker_spans_parent_onto_dispatch_span(self):
        db = make_db(parallel=2)
        db.query(PARTITIONED_SQL)
        by_id = {r.span_id: r for r in db.tracer.records()}
        partitions = [r for r in by_id.values() if r.name == "partition"]
        assert len(partitions) == 4
        for part in partitions:
            parent = by_id[part.parent_id]
            assert parent.name == "parallel_dispatch"
            # and the whole chain resolves up to the query root
            while parent.parent_id:
                parent = by_id[parent.parent_id]
            assert parent.name == "query"

    def test_chrome_export_validates_with_worker_tracks(self):
        db = make_db(parallel=2)
        db.query(PARTITIONED_SQL)
        payload = db.tracer.to_chrome_trace()
        assert validate_chrome_trace(payload) == []
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert len(pids) >= 2


class TestDatabaseTracing:
    def test_off_by_default(self):
        db = Database()
        assert db.tracer is None
        assert not db.trace_enabled
        with pytest.raises(PlanningError):
            db.export_trace("/tmp/never-written.json")

    def test_query_span_hierarchy_and_phases(self):
        db = make_db(parallel=1)
        db.query(PARTITIONED_SQL)
        names = [r.name for r in db.tracer.records()]
        assert names.count("query") == 1
        assert names.count("partition") == 4
        assert names.count("ingest") == 4
        assert names.count("finalize") == 4
        assert names.count("spool") == 1
        # one fold span per partition, a sibling of its `partition` span
        # under the node's span
        records = db.tracer.records()
        folds = [r for r in records if r.name == "fold"]
        assert [r.attrs for r in folds] == [{"rows": 30, "groups": 3}] * 4
        by_id = {r.span_id: r for r in records}
        parents = {r.parent_id for r in records
                   if r.name in ("fold", "partition", "spool")}
        assert [by_id[p].attrs["node"] for p in parents] == ["SGBAggregate"]

    def test_set_trace_toggles_but_keeps_buffer(self):
        db = make_db(parallel=1)
        db.query(PARTITIONED_SQL)
        buffered = len(db.tracer)
        db.set_trace(False)
        db.query(PARTITIONED_SQL)  # untraced: buffer unchanged
        assert len(db.tracer) == buffered
        db.set_trace(True)
        db.query(PARTITIONED_SQL)
        assert len(db.tracer) > buffered

    def test_traced_results_match_untraced(self):
        traced = make_db(parallel=1, trace=True)
        plain = make_db(parallel=1, trace=False)
        assert traced.query(PARTITIONED_SQL).rows == \
            plain.query(PARTITIONED_SQL).rows

    def test_export_trace_formats(self, tmp_path):
        db = make_db(parallel=1)
        db.query(PARTITIONED_SQL)
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        db.export_trace(str(chrome))
        n = db.export_trace(str(jsonl))
        payload = json.loads(chrome.read_text())
        assert validate_chrome_trace(payload) == []
        assert len(jsonl.read_text().splitlines()) == n == len(db.tracer)


class TestMetricsSnapshot:
    def test_fresh_database_snapshot_is_complete_and_parseable(self):
        parsed = parse_prometheus_text(Database().metrics_snapshot())
        names = {name for name, _ in parsed}
        for counter in SGB_COUNTER_FIELDS:
            assert f"repro_sgb_{counter}_total" in names
        assert any(name.endswith("_bucket") for name in names)

    def test_traced_query_populates_counters_and_histograms(self):
        db = make_db(parallel=2)
        db.query(PARTITIONED_SQL)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        batch = (("source", "batch"),)
        assert parsed[("repro_sgb_points_total", batch)] == 120
        assert parsed[("repro_sgb_index_probes_total", batch)] > 0
        assert parsed[("repro_probe_latency_seconds_count", batch)] == 120
        assert parsed[("repro_queries_total", ())] == 1

    def test_parallel_and_serial_snapshots_agree_on_counters(self):
        # Worker-side bags fold back into the parent, so the exported
        # totals must not depend on where partitions ran.
        dbs = [make_db(parallel=1), make_db(parallel=2)]
        snapshots = []
        for db in dbs:
            db.query(PARTITIONED_SQL)
            parsed = parse_prometheus_text(db.metrics_snapshot())
            snapshots.append({
                key: value for key, value in parsed.items()
                if "_total" in key[0] and "trace_spans" not in key[0]
            })
        assert snapshots[0] == snapshots[1]

    def test_analyze_folds_into_cumulative_metrics(self):
        db = make_db(parallel=1, trace=False)
        db.analyze(PARTITIONED_SQL)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        assert parsed[("repro_sgb_points_total", (("source", "batch"),))] == 120


class TestStreamingSpans:
    def test_micro_batch_spans_and_histogram(self):
        db = make_db(parallel=1)
        db.create_stream_view("sv", "pts", ["x", "y"], "any", eps=1.0,
                              batch_size=32)
        spans = [r for r in db.tracer.records() if r.name == "micro_batch"]
        assert len(spans) == 120 // 32  # back-fill flushes
        assert all(sp.attrs["size"] == 32 for sp in spans)
        assert all(sp.attrs["points"] == 32 for sp in spans)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        batch = (("source", "batch"),)
        assert parsed[("repro_micro_batch_latency_seconds_count", batch)] \
            == len(spans)
        stream = (("source", "stream:sv"),)
        assert parsed[("repro_sgb_points_total", stream)] == 96

    def test_set_trace_reaches_existing_views(self):
        db = make_db(parallel=1, trace=False)
        view = db.create_stream_view("sv", "pts", ["x", "y"], "any",
                                     eps=1.0, batch_size=16)
        assert view.batcher.tracer is None
        db.set_trace(True)
        assert view.batcher.tracer is db.tracer
        db.insert("pts", [(0, 50.0, 50.0)] * 16)
        assert any(r.name == "micro_batch" for r in db.tracer.records())


class TestShellTrace:
    def test_trace_on_dump_off_cycle(self, tmp_path):
        sh = Shell(make_db(parallel=1, trace=False))
        assert "off" in sh.feed("\\trace")
        assert sh.feed("\\trace on") == "Tracing is on."
        sh.feed(PARTITIONED_SQL + ";")
        path = tmp_path / "shell-trace.json"
        out = sh.feed(f"\\trace dump {path}")
        assert "Wrote" in out
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        assert sh.feed("\\trace off") == "Tracing is off."
        assert "off" in sh.feed("\\trace")

    def test_trace_usage_and_dump_errors(self):
        sh = Shell()
        assert "usage" in sh.feed("\\trace bogus")
        assert "usage" in sh.feed("\\trace dump")
        assert sh.feed("\\trace dump /nope/nope.json").startswith("ERROR:")

    def test_metrics_command_emits_prometheus_text(self):
        sh = Shell(make_db(parallel=1))
        sh.feed(PARTITIONED_SQL + ";")
        parsed = parse_prometheus_text(sh.feed("\\metrics"))
        assert parsed[("repro_sgb_points_total", (("source", "batch"),))] > 0

    def test_help_mentions_trace(self):
        sh = Shell()
        assert "\\trace" in sh.feed("\\help")
