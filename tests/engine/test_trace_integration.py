"""End-to-end tracing: Database wiring, span tree, export, shell.

A traced PARTITION BY query yields one ``query`` root, one span per plan
node, and under the SGB node a ``spool`` span plus a ``partition`` (with
the operator's ``ingest`` / ``finalize``) and a ``fold`` span per
partition.
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


def make_db(trace: bool = True, n: int = 120) -> Database:
    db = Database(trace=trace)
    db.execute("CREATE TABLE pts (part int, x float, y float)")
    rows = []
    for i in range(n):
        cluster = i % 3
        rows.append((i % 4, cluster * 10.0 + (i % 7) * 0.05,
                     cluster * 10.0 + (i % 5) * 0.05))
    db.insert("pts", rows)
    return db


def span_tree(tracer):
    """Canonical nested shape of a trace: names, attributes and nesting,
    siblings order-normalized."""
    records = tracer.records()
    children = {}
    for r in records:
        children.setdefault(r.parent_id, []).append(r)

    def shape(r):
        kids = sorted(
            (shape(c) for c in children.get(r.span_id, [])),
            key=lambda s: (s[0], sorted(s[1].items())),
        )
        return (r.name, r.attrs, tuple(kids))

    roots = sorted(
        (shape(r) for r in children.get("", [])),
        key=lambda s: s[0],
    )
    return tuple(roots)


class TestDatabaseTracing:
    def test_off_by_default(self):
        db = Database()
        assert db.tracer is None
        assert not db.trace_enabled
        with pytest.raises(PlanningError):
            db.export_trace("/tmp/never-written.json")

    def test_query_span_hierarchy_and_phases(self):
        db = make_db()
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
        db = make_db()
        db.query(PARTITIONED_SQL)
        buffered = len(db.tracer)
        db.set_trace(False)
        db.query(PARTITIONED_SQL)  # untraced: buffer unchanged
        assert len(db.tracer) == buffered
        db.set_trace(True)
        db.query(PARTITIONED_SQL)
        assert len(db.tracer) > buffered

    def test_traced_results_match_untraced(self):
        traced = make_db(trace=True)
        plain = make_db(trace=False)
        assert traced.query(PARTITIONED_SQL).rows == \
            plain.query(PARTITIONED_SQL).rows

    def test_export_trace_formats(self, tmp_path):
        db = make_db()
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

    def test_traced_query_populates_counters_and_histograms(self):
        db = make_db()
        db.query(PARTITIONED_SQL)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        batch = (("source", "batch"),)
        assert parsed[("repro_sgb_points_total", batch)] == 120
        assert parsed[("repro_sgb_index_probes_total", batch)] > 0
        assert parsed[("repro_queries_total", ())] == 1

    def test_analyze_folds_into_cumulative_metrics(self):
        db = make_db(trace=False)
        db.analyze(PARTITIONED_SQL)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        assert parsed[("repro_sgb_points_total", (("source", "batch"),))] == 120


class TestStreamingSpans:
    def test_micro_batch_spans_and_histogram(self):
        db = make_db()
        db.create_stream_view("sv", "pts", ["x", "y"], "any", eps=1.0,
                              batch_size=32)
        spans = [r for r in db.tracer.records() if r.name == "micro_batch"]
        assert len(spans) == 120 // 32  # back-fill flushes
        assert all(sp.attrs["size"] == 32 for sp in spans)
        assert all(sp.attrs["points"] == 32 for sp in spans)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        stream = (("source", "stream:sv"),)
        assert parsed[("repro_sgb_points_total", stream)] == 96

    def test_set_trace_reaches_existing_views(self):
        db = make_db(trace=False)
        view = db.create_stream_view("sv", "pts", ["x", "y"], "any",
                                     eps=1.0, batch_size=16)
        assert view.batcher.tracer is None
        db.set_trace(True)
        assert view.batcher.tracer is db.tracer
        db.insert("pts", [(0, 50.0, 50.0)] * 16)
        assert any(r.name == "micro_batch" for r in db.tracer.records())


class TestNoEngineHistograms:
    def test_sgb_work_reports_through_counters_and_spans_only(self):
        """A traced PARTITION BY SGB-Any SELECT, an EXPLAIN ANALYZE of an
        SGB-All query and stream-view flushes record no histogram: no
        analysed node carries one, the cumulative bag holds none, and the
        only histogram families of a ``/metrics`` body are the
        service's."""
        from repro.obs.metrics import MetricBag
        from repro.service.metrics import service_prometheus_text

        db = make_db()
        db.query(PARTITIONED_SQL)
        record = db.analyze(
            "SELECT part, count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ALL L2 WITHIN 0.2 ON-OVERLAP FORM-NEW-GROUP "
            "PARTITION BY part").metrics
        db.create_stream_view("sv", "pts", ["x", "y"], "any", eps=1.0,
                              batch_size=16)
        db.insert("pts", [(0, 50.0, 50.0)] * 40)
        assert sum(r.name == "micro_batch" for r in db.tracer.records()) > 2

        def nodes(rec):
            yield rec
            for child in rec.get("children", ()):
                yield from nodes(child)

        analysed = list(nodes(record))
        assert any("counters" in node for node in analysed)
        assert not [node for node in analysed if "histograms" in node]
        assert db._metrics.histograms == {}
        body = db.metrics_snapshot() + service_prometheus_text(MetricBag(),
                                                               {})
        families = {line.split()[2] for line in body.splitlines()
                    if line.startswith("# TYPE ")
                    and line.endswith(" histogram")}
        assert families == {
            "repro_service_queue_wait_latency_seconds",
            "repro_service_exec_latency_seconds",
            "repro_service_request_latency_seconds",
        }
        parsed = parse_prometheus_text(body)
        assert parsed[("repro_sgb_points_total",
                       (("source", "stream:sv"),))] == 160


class TestShellTrace:
    def test_trace_on_dump_off_cycle(self, tmp_path):
        sh = Shell(make_db(trace=False))
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
        sh = Shell(make_db())
        sh.feed(PARTITIONED_SQL + ";")
        parsed = parse_prometheus_text(sh.feed("\\metrics"))
        assert parsed[("repro_sgb_points_total", (("source", "batch"),))] > 0

    def test_help_mentions_trace(self):
        sh = Shell()
        assert "\\trace" in sh.feed("\\help")
