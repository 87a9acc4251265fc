"""Unit tests for the hierarchical tracer and its export formats."""

import json
import os

import pytest

from repro.obs.trace import (
    SpanRecord,
    Tracer,
    chrome_trace_payload,
    maybe_span,
    validate_chrome_trace,
)


class TestSpanParenting:
    def test_nested_spans_record_exact_parent_ids(self):
        t = Tracer()
        with t.span("query") as q:
            with t.span("node") as n:
                with t.span("phase"):
                    pass
        phase, node, query = t.records()
        assert query.parent_id == ""
        assert node.parent_id == query.span_id
        assert phase.parent_id == node.span_id
        assert q.span_id == query.span_id
        assert n.span_id == node.span_id

    def test_sibling_spans_share_parent(self):
        t = Tracer()
        with t.span("root"):
            with t.span("a"):
                pass
            with t.span("b"):
                pass
        a, b, root = t.records()
        assert a.parent_id == b.parent_id == root.span_id
        assert a.span_id != b.span_id

    def test_trace_id_changes_per_root(self):
        t = Tracer()
        with t.span("one"):
            pass
        with t.span("two"):
            pass
        one, two = t.records()
        assert one.trace_id != two.trace_id

    def test_set_attrs_recorded_at_exit(self):
        t = Tracer()
        with t.span("work", phase="ingest") as sp:
            sp.set(rows=42)
        (rec,) = t.records()
        assert rec.attrs == {"phase": "ingest", "rows": 42}

    def test_exception_tags_error_attr(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("work"):
                raise ValueError("boom")
        (rec,) = t.records()
        assert rec.attrs["error"] == "ValueError"
        assert t.depth == 0  # stack unwound

    def test_span_not_reentrant_and_exit_guarded(self):
        t = Tracer()
        sp = t.span("w")
        with pytest.raises(RuntimeError):
            sp.__exit__(None, None, None)  # never entered
        with sp:
            with pytest.raises(RuntimeError):
                sp.__enter__()

    def test_timestamps_monotone_and_nested(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.records()
        assert outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s
        assert inner.duration_s >= 0.0


class TestRingBuffer:
    def test_oldest_spans_dropped_and_counted(self):
        t = Tracer(capacity=3)
        for i in range(5):
            with t.span(f"s{i}"):
                pass
        assert len(t) == 3
        assert t.dropped == 2
        assert [r.name for r in t.records()] == ["s2", "s3", "s4"]

    def test_clear_resets(self):
        t = Tracer(capacity=2)
        for _ in range(4):
            with t.span("x"):
                pass
        t.clear()
        assert len(t) == 0
        assert t.dropped == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestExports:
    def _sample_tracer(self):
        t = Tracer()
        with t.span("query", sql="q"):
            with t.span("scan"):
                pass
        return t

    def test_jsonl_round_trips(self, tmp_path):
        t = self._sample_tracer()
        path = tmp_path / "trace.jsonl"
        n = t.to_jsonl(path)
        lines = path.read_text().splitlines()
        assert n == len(lines) == 2
        records = [SpanRecord.from_dict(json.loads(line)) for line in lines]
        assert {r.name for r in records} == {"query", "scan"}
        by_name = {r.name: r for r in records}
        assert by_name["scan"].parent_id == by_name["query"].span_id

    def test_chrome_trace_structure(self):
        t = self._sample_tracer()
        payload = t.to_chrome_trace()
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"query", "scan"}
        assert meta[0]["args"]["name"] == "sgb-main"
        for e in complete:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0
            assert e["pid"] == os.getpid()

    def test_chrome_trace_file(self, tmp_path):
        t = self._sample_tracer()
        path = tmp_path / "trace.json"
        t.to_chrome_trace_file(path)
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []

    def test_validator_flags_bad_nesting_and_orphans(self):
        records = [
            SpanRecord("t1", "s1", "", "parent", 0.0, 1.0, 1, {}),
            SpanRecord("t1", "s2", "s1", "child", 0.5, 2.0, 1, {}),
            SpanRecord("t1", "s3", "nope", "orphan", 0.0, 0.1, 1, {}),
        ]
        problems = validate_chrome_trace(chrome_trace_payload(records))
        assert any("does not nest" in p for p in problems)
        assert any("unresolved parent" in p for p in problems)


class TestMaybeSpan:
    def test_none_tracer_is_noop(self):
        with maybe_span(None, "phase") as sp:
            sp.set(rows=1)  # must not raise

    def test_real_tracer_records(self):
        t = Tracer()
        with maybe_span(t, "phase", k=1):
            pass
        (rec,) = t.records()
        assert rec.name == "phase"
        assert rec.attrs == {"k": 1}


class TestConcurrentTracing:
    def test_two_threads_tracing_selects_keep_their_own_trees(self):
        """Concurrent SELECTs share the statement lock, so their spans
        interleave in one tracer: each must still nest under its own
        ``query`` root, in its own trace."""
        import sys
        import threading

        from repro import Database

        db = Database(trace=True)
        db.execute("CREATE TABLE pts (x float, y float)")
        db.insert("pts", [(i % 7, i % 5) for i in range(60)])
        sql = ("SELECT count(*) FROM pts "
               "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5")
        barrier = threading.Barrier(2)
        errors = []

        def worker():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(30):
                    db.query(sql)
            except Exception as exc:  # noqa: BLE001 - recorded, asserted
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

        records = db.tracer.records()
        by_id = {r.span_id: r for r in records}
        assert len(by_id) == len(records)  # span ids are unique
        for r in records:
            if r.parent_id:
                assert by_id[r.parent_id].trace_id == r.trace_id, r
        roots = [r for r in records if r.name == "query"]
        assert len(roots) == 60
        assert all(not r.parent_id for r in roots)
        assert len({r.trace_id for r in roots}) == 60
        assert validate_chrome_trace(db.tracer.to_chrome_trace()) == []
