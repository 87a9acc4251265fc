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


class TestWorkerPropagation:
    def test_for_context_parents_onto_propagated_span(self):
        parent = Tracer()
        with parent.span("dispatch"):
            trace_id, parent_span = parent.context()
            worker = Tracer.for_context(trace_id, parent_span,
                                        tag=f"{parent_span}.p0.")
            with worker.span("partition", partition=0):
                with worker.span("ingest"):
                    pass
            parent.ingest(worker.export_records())
        names = {r.name: r for r in parent.records()}
        assert names["partition"].parent_id == names["dispatch"].span_id
        assert names["ingest"].parent_id == names["partition"].span_id
        assert names["partition"].trace_id == names["dispatch"].trace_id

    def test_task_tags_keep_ids_unique_across_tasks(self):
        # A pool process reuses its tracer-id counter per task; the
        # per-task tag prefix is what guarantees global uniqueness.
        parent = Tracer()
        with parent.span("dispatch"):
            trace_id, psid = parent.context()
            for index in range(3):
                w = Tracer.for_context(trace_id, psid, tag=f"{psid}.p{index}.")
                with w.span("partition"):
                    pass
                parent.ingest(w.export_records())
        ids = [r.span_id for r in parent.records()]
        assert len(ids) == len(set(ids))

    def test_context_without_open_span_is_rootless(self):
        t = Tracer()
        trace_id, span_id = t.context()
        assert span_id == ""


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

    def test_worker_pids_become_separate_tracks(self):
        records = [
            SpanRecord("t1", "s1", "", "query", 0.0, 1.0, 100, {}),
            SpanRecord("t1", "s1.p0.1", "s1", "partition", 0.1, 0.9, 200, {}),
        ]
        payload = chrome_trace_payload(records, main_pid=100)
        names = {e["pid"]: e["args"]["name"]
                 for e in payload["traceEvents"] if e["ph"] == "M"}
        assert names[100] == "sgb-main"
        assert names[200] == "sgb-worker-200"
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
