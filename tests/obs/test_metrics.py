"""Unit tests for the repro.obs counter primitives and node records."""

import time

import pytest

from repro.engine.executor.base import PhysicalOperator
from repro.obs import MetricBag, QueryContext
from repro.obs.metrics import EXEC_COUNTER_FIELDS, SGB_COUNTER_FIELDS


class _Leaf(PhysicalOperator):
    """A plan leaf whose every pass yields what ``make()`` returns."""

    def __init__(self, make):
        self._make = make

    def _execute(self):
        return self._make()


def recorded(make, **flags):
    """``(node, its NodeMetrics)`` for a leaf bound to a collecting
    context — iterating the node goes through ``QueryContext.record``."""
    node = _Leaf(make)
    ctx = QueryContext(collect=True, **flags)
    ctx.bind(node)
    return node, ctx.nodes[node]


class TestMetricBag:
    def test_empty_bag_is_falsy(self):
        bag = MetricBag()
        assert not bag
        assert bag.as_dict() == {}

    def test_incr_and_get(self):
        bag = MetricBag()
        bag.incr("points")
        bag.incr("points", 4)
        assert bag.get("points") == 5
        assert bag.get("missing") == 0
        assert bag.get("missing", -1) == -1
        assert bag

    def test_merge_sums_counters(self):
        a = MetricBag()
        a.incr("candidates", 3)
        b = MetricBag()
        b.incr("candidates", 2)
        b.incr("points")
        a.merge(b)
        assert a.get("candidates") == 5
        assert a.get("points") == 1
        assert a.as_dict() == {"candidates": 5, "points": 1}


class TestCounterVocabulary:
    def test_sgb_fields_match_stream_stats(self):
        # StreamStats and the batch MetricBag share one field vocabulary.
        from repro.obs.metrics import StreamStats

        stats = StreamStats()
        for field in SGB_COUNTER_FIELDS:
            assert hasattr(stats, field)

    def test_exec_fields_disjoint_from_sgb_fields(self):
        assert not set(EXEC_COUNTER_FIELDS) & set(SGB_COUNTER_FIELDS)


class TestNodeMetrics:
    def test_record_counts_rows_and_loops(self):
        passes = [[(1,), (2,), (3,)], [(4,)]]
        node, nm = recorded(lambda: iter(passes.pop(0)))
        assert list(node) == [(1,), (2,), (3,)]
        assert nm.rows_out == 3
        assert nm.loops == 1
        list(node)
        assert nm.rows_out == 4
        assert nm.loops == 2

    def test_record_times_producer_not_consumer(self):
        def rows():
            yield (1,)
            yield (2,)

        node, nm = recorded(rows)
        for _ in node:
            time.sleep(0.01)  # consumer delay must not be charged
        assert nm.time_s < 0.01

    def test_as_dict_omits_empty_counters(self):
        node, nm = recorded(lambda: iter([]))
        list(node)
        d = nm.as_dict()
        assert d["rows"] == 0
        assert d["loops"] == 1
        assert "counters" not in d
        nm.bag.incr("rows_skipped_null")
        assert nm.as_dict()["counters"] == {"rows_skipped_null": 1}


class TestTimingNamespace:
    def test_counter_names_ending_in_s_rejected(self):
        # `_s` names a duration in seconds (wall_time_s, time_s, p50_s);
        # a bag entry is a count.
        bag = MetricBag()
        with pytest.raises(ValueError):
            bag.incr("wall_time_s")


class TestBagHistograms:
    def test_observe_and_summaries(self):
        bag = MetricBag()
        bag.observe("service_exec_latency", 1e-5)
        bag.observe("service_exec_latency", 2e-5)
        hist = bag.histogram("service_exec_latency")
        assert hist.count == 2
        assert hist.sum_s == pytest.approx(3e-5)
        assert bag  # non-empty with only histogram content

    def test_merge_folds_histograms(self):
        a, b = MetricBag(), MetricBag()
        a.observe("service_exec_latency", 1e-6)
        b.observe("service_exec_latency", 1e-3)
        b.observe("service_queue_wait_latency", 1e-4)
        a.merge(b)
        assert a.histogram("service_exec_latency").count == 2
        assert a.histogram("service_queue_wait_latency").count == 1
        assert b.histogram("service_exec_latency").count == 1  # untouched


class TestNodeMetricsCloseSafety:
    def test_early_close_charges_inflight_time(self):
        # LIMIT-style early stop: the consumer abandons the iterator
        # mid-stream; the time spent producing the unconsumed next row
        # (and the segment since the last yield) must still be charged.
        def slow_rows():
            yield (1,)
            time.sleep(0.01)
            yield (2,)

        node, nm = recorded(slow_rows)
        it = iter(node)
        next(it)
        next(it)
        it.close()
        assert nm.time_s >= 0.01
        assert nm.rows_out == 2

    def test_producer_exception_charges_time(self):
        def exploding_rows():
            yield (1,)
            time.sleep(0.01)
            raise RuntimeError("producer died")

        node, nm = recorded(exploding_rows)
        it = iter(node)
        next(it)
        with pytest.raises(RuntimeError):
            next(it)
        assert nm.time_s >= 0.01
        assert nm.rows_out == 1

    def test_span_opens_lazily_and_survives_early_close(self):
        from repro.obs import Tracer

        tracer = Tracer()
        node, nm = recorded(lambda: iter([(i,) for i in range(100)]),
                            tracer=tracer)
        it = iter(node)
        assert len(tracer) == 0  # not opened until the first next()
        with tracer.span("query"):
            next(it)
            next(it)
            it.close()  # LIMIT-style abandonment
        leaf, query = tracer.records()
        assert leaf.name == "_Leaf" and leaf.attrs["rows"] == 2
        assert leaf.parent_id == query.span_id
        assert tracer.depth == 0 and nm.rows_out == 2

    def test_cancel_unwinds_through_clock_and_span(self):
        from repro.core.cancel import CancelToken
        from repro.errors import QueryCancelledError
        from repro.obs import Tracer

        tracer, token = Tracer(), CancelToken()

        def checked_rows():
            # The recorder checks no token; a leaf checks as it hands
            # out rows, and its error unwinds through the recorder.
            for row in [(1,), (2,), (3,)]:
                token.check()
                yield row

        node, nm = recorded(checked_rows, tracer=tracer, cancel=token)
        it = iter(node)
        next(it)
        token.cancel()
        with pytest.raises(QueryCancelledError):
            next(it)
        (leaf,) = tracer.records()
        assert leaf.attrs["rows"] == 1
        assert leaf.attrs["error"] == "QueryCancelledError"
        assert nm.rows_out == 1 and nm.time_s > 0

    def test_no_double_charge_on_clean_exhaustion(self):
        node, nm = recorded(lambda: iter([(1,)] * 5))
        rows = list(node)
        assert len(rows) == 5
        # A clean pass over a trivial iterator stays far under the 10 ms
        # sentinel used above — double charging the finally block would
        # not, because `charged` resets after every yield.
        assert nm.time_s < 0.01
