"""Micro-batcher mechanics: buffering, flush triggers, per-batch stats.

The batcher keeps a flush count, not a history: per-batch sizes, sequence
numbers and counter deltas are read off the ``micro_batch`` spans of a
traced batcher, which is where they go.
"""

import random
import sys

import pytest

from repro.core.api import sgb_stream
from repro.errors import (
    DimensionMismatchError,
    InvalidCoordinateError,
    InvalidParameterError,
    StreamStateError,
)
from repro.obs.metrics import SGB_COUNTER_FIELDS
from repro.obs.trace import Tracer
from repro.streaming import MicroBatcher
from repro.streaming.any_engine import StreamingSGBAny


def random_points(n, seed=0):
    rng = random.Random(seed)
    return [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]


def traced_batcher(batch_size, **engine_options):
    tracer = Tracer()
    stream = sgb_stream("any", batch_size=batch_size,
                        **{"eps": 1.0, **engine_options})
    stream.tracer = tracer
    return stream, tracer


def batch_spans(tracer):
    """Attributes of the ``micro_batch`` spans, in flush order."""
    return [r.attrs for r in tracer.records() if r.name == "micro_batch"]


class TestBatching:
    def test_buffers_until_batch_size(self):
        mb, tracer = traced_batcher(3)
        mb.insert((0, 0))
        mb.insert((1, 1))
        assert mb.n_pending == 2
        assert mb.engine.n_points == 0
        mb.insert((2, 2))  # triggers the flush
        assert mb.n_pending == 0
        assert mb.engine.n_points == 3
        assert mb.n_batches == 1
        (span,) = batch_spans(tracer)
        assert span["size"] == span["points"] == 3

    def test_snapshot_flushes_pending(self):
        mb = sgb_stream("any", eps=1.0, batch_size=100)
        mb.extend([(0, 0), (0.5, 0), (9, 9)])
        assert mb.n_pending == 3
        snap = mb.snapshot()
        assert snap.n_points == 3
        assert snap.group_sizes() == [2, 1]
        assert mb.n_pending == 0

    def test_result_flushes_and_closes(self):
        mb = sgb_stream("any", eps=1.0, batch_size=100)
        mb.extend([(0, 0), (0.5, 0)])
        res = mb.result()
        assert res.n_points == 2
        assert mb.closed

    def test_flush_on_empty_buffer_is_noop(self):
        mb = sgb_stream("any", eps=1.0, batch_size=2)
        mb.flush()
        assert mb.n_batches == 0

    def test_rejects_bad_batch_size(self):
        with pytest.raises(InvalidParameterError):
            sgb_stream("any", eps=1.0, batch_size=0)

    def test_validation_is_eager_not_deferred_to_flush(self):
        """A bad row must fail the insert() that supplied it — buffering
        it would blow up a later snapshot()/result() instead."""
        mb = sgb_stream("any", eps=1.0, batch_size=100)
        mb.insert((0, 0))
        with pytest.raises(InvalidCoordinateError):
            mb.insert((1, float("nan")))
        with pytest.raises(DimensionMismatchError):
            mb.insert((1, 2, 3))
        assert mb.n_points == 1  # bad rows were never buffered
        assert mb.snapshot().n_points == 1  # and flush stays clean

    def test_engine_rejection_at_flush_loses_only_that_row(self):
        """A finite row only the engine can refuse (1e308 has no grid
        cell at ε = 0.5) fails the flush that reaches it; the rows before
        it are ingested and reported, the rows behind it stay pending."""
        mb, tracer = traced_batcher(100, eps=0.5, strategy="grid")
        mb.extend([(0, 0), (1e308, 0), (0.1, 0), (7, 7)])
        with pytest.raises(InvalidCoordinateError):
            mb.flush()
        assert mb.engine.n_points == 1 and mb.n_pending == 2
        assert [(a["size"], a["points"]) for a in batch_spans(tracer)] \
            == [(4, 1)]
        assert mb.snapshot().points == [(0.0, 0.0), (0.1, 0.0), (7.0, 7.0)]
        assert sum(a["points"] for a in batch_spans(tracer)) \
            == mb.stats.points == 3

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_extend_validates_every_row_first(self, k):
        """A bad row anywhere in an extend buffers none of its rows."""
        mb, tracer = traced_batcher(3)
        mb.insert((9, 9))
        rows = [(float(i), 0.0) for i in range(5)]
        rows[k] = (1.0, float("inf"))
        with pytest.raises(InvalidCoordinateError):
            mb.extend(rows)
        assert mb.n_points == mb.n_pending == 1
        assert batch_spans(tracer) == []

    def test_extend_keeps_rows_behind_a_failed_flush(self):
        """The engine refusing a row mid-extend loses that row only: the
        rest of the call's rows stay buffered for the next flush."""
        mb, tracer = traced_batcher(2, eps=0.5, strategy="grid")
        with pytest.raises(InvalidCoordinateError):
            mb.extend([(0, 0), (1e308, 0), (0.1, 0), (7, 7), (7.2, 7)])
        assert mb.engine.n_points == 1 and mb.n_pending == 3
        assert mb.snapshot().points == [(0.0, 0.0), (0.1, 0.0), (7.0, 7.0),
                                        (7.2, 7.0)]

    def test_insert_after_result_fails_immediately(self):
        mb = sgb_stream("any", eps=1.0, batch_size=100)
        mb.extend([(0, 0), (9, 9)])
        mb.result()
        with pytest.raises(StreamStateError):
            mb.insert((1, 1))

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 1000])
    def test_batch_partitioning(self, batch_size):
        pts = random_points(64)
        mb, tracer = traced_batcher(batch_size, eps=0.8)
        mb.extend(pts)
        mb.flush()
        sizes = [a["size"] for a in batch_spans(tracer)]
        assert len(sizes) == mb.n_batches
        assert sum(sizes) == 64
        assert all(s == min(batch_size, 64) for s in sizes[:-1])


class TestPerBatchStats:
    def test_deltas_sum_to_engine_totals(self):
        pts = random_points(50, seed=3)
        mb, tracer = traced_batcher(7, eps=0.8)
        mb.extend(pts)
        mb.flush()
        spans = batch_spans(tracer)
        for counter in SGB_COUNTER_FIELDS:
            assert sum(a.get(counter, 0) for a in spans) \
                == getattr(mb.stats, counter), counter
        assert mb.stats.points == mb.stats.index_probes == 50
        assert sum(a["wall_ms"] for a in spans) == pytest.approx(
            mb.stats.wall_time_s * 1000.0, abs=0.001 * len(spans))

    def test_batch_records_are_labeled(self):
        mb, tracer = traced_batcher(2)
        mb.extend(random_points(5))
        mb.flush()
        spans = batch_spans(tracer)
        assert [a["batch"] for a in spans] == [0, 1, 2]
        assert [a["size"] for a in spans] == [2, 2, 1]
        assert all(a["wall_ms"] >= 0 for a in spans)
        assert mb.n_batches == 3

    def test_flushing_forever_keeps_the_batcher_the_same_size(self):
        """A view behind the service flushes at least once per INSERT;
        nothing the batcher holds may grow with the number of flushes."""
        mb = sgb_stream("any", eps=1.0, batch_size=1)

        def attribute_sizes():
            return {name: sys.getsizeof(value)
                    for name, value in vars(mb).items() if name != "engine"}

        mb.insert((0.0, 0.0))
        before = attribute_sizes()
        for i in range(10_000):
            mb.insert((float(i % 7), 0.0))
        assert mb.n_batches == 10_001
        assert attribute_sizes() == before


class TestBatchSpanTags:
    def test_span_carries_backend_and_null_skips(self):
        from repro import kernels

        mb, tracer = traced_batcher(3)
        mb.extend([(0, 0), (1, 1)])
        mb.note_skipped_null(2)
        mb.insert((2, 2))  # flush
        (span,) = [r for r in tracer.records() if r.name == "micro_batch"]
        assert span.attrs["backend"] == kernels.active_backend()
        assert span.attrs["rows_skipped_null"] == 2
        assert span.attrs["size"] == 3

    def test_skip_counter_is_per_batch_delta_not_cumulative(self):
        mb, tracer = traced_batcher(2)
        mb.note_skipped_null()
        mb.extend([(0, 0), (1, 1)])        # flush 1: one skip so far
        mb.note_skipped_null(3)
        mb.extend([(2, 2), (3, 3)])        # flush 2: three more
        mb.flush()                          # empty buffer: no span
        spans = [r for r in tracer.records() if r.name == "micro_batch"]
        assert [s.attrs["rows_skipped_null"] for s in spans] == [1, 3]
        assert mb.rows_skipped_null == 4    # lifetime total still kept

    def test_untraced_batcher_still_counts_skips(self):
        mb = sgb_stream("any", eps=1.0, batch_size=2)
        mb.note_skipped_null(5)
        mb.extend([(0, 0), (1, 1)])
        assert mb.rows_skipped_null == 5

    def test_stream_view_null_rows_feed_batch_tags(self):
        from repro.engine.database import Database

        db = Database(trace=True)
        db.execute("CREATE TABLE t (x float, y float)")
        db.create_stream_view("sv", "t", ["x", "y"], "any", eps=1.0,
                              batch_size=4)
        db.insert("t", [(0.0, 0.0), (None, 1.0), (1.0, None), (2.0, 2.0),
                        (3.0, 3.0), (4.0, 4.0)])
        spans = [r for r in db.tracer.records() if r.name == "micro_batch"]
        assert sum(s.attrs["rows_skipped_null"] for s in spans) == 2
        assert all("backend" in s.attrs for s in spans)


class TestSgbStreamEntryPoint:
    def test_builds_any_engine(self):
        stream = sgb_stream("any", eps=1.0, batch_size=2)
        assert isinstance(stream, MicroBatcher)
        assert isinstance(stream.engine, StreamingSGBAny)

    def test_builds_all_engine_with_options(self):
        stream = sgb_stream("all", eps=1.0, on_overlap="eliminate",
                            tiebreak="first")
        assert stream.engine.on_overlap == "eliminate"

    def test_initial_points_are_ingested(self):
        stream = sgb_stream("any", eps=1.0, batch_size=2,
                            points=[(0, 0), (0.5, 0), (9, 9)])
        assert stream.snapshot().group_sizes() == [2, 1]

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParameterError):
            sgb_stream("some", eps=1.0)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidParameterError):
            sgb_stream("any", eps=0.0)

    def test_all_engine_takes_no_handle_options(self):
        with pytest.raises(TypeError):
            sgb_stream("all", eps=1.0, tracer=Tracer())
