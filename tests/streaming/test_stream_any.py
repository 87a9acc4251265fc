"""Unit tests for the incremental SGB-Any stream (``sgb_stream("any")``)."""

import random

import pytest

from repro.core.api import sgb_stream
from repro.errors import (
    DimensionMismatchError,
    InvalidCoordinateError,
    InvalidParameterError,
    StreamStateError,
)


def cluster_points():
    return [(0, 0), (0.5, 0), (9, 9), (0.2, 0.4), (8.6, 9.1)]


class TestIncrementalGrouping:
    def test_groups_track_insertions(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.insert((0, 0))
        assert eng.engine.n_groups == 1
        eng.insert((9, 9))
        assert eng.engine.n_groups == 2
        eng.insert((0.5, 0))  # joins the first component
        assert eng.engine.n_groups == 2
        eng.insert((4.5, 4.5))
        assert eng.engine.n_groups == 3

    def test_insert_merges_several_components(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.extend([(0, 0), (2, 0)])
        assert eng.engine.n_groups == 2
        eng.insert((1, 0))  # bridges both
        assert eng.engine.n_groups == 1
        assert eng.stats.groups_merged == 2

    def test_snapshot_is_nondestructive(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.extend(cluster_points())
        first = eng.snapshot()
        second = eng.snapshot()
        assert first == second
        eng.insert((100, 100))  # still ingesting after snapshots
        assert eng.n_points == 6

    def test_result_closes_the_stream(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.extend(cluster_points())
        res = eng.result()
        assert res.n_points == 5
        with pytest.raises(StreamStateError):
            eng.insert((0, 0))
        with pytest.raises(StreamStateError):
            eng.result()

    @pytest.mark.parametrize("index", ["grid", "rtree", "linear"])
    def test_index_variants_agree(self, index):
        rng = random.Random(7)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(150)]
        baseline = sgb_stream("any", eps=0.8, strategy="linear",
                              batch_size=1)
        baseline.extend(pts)
        eng = sgb_stream("any", eps=0.8, strategy=index, batch_size=1)
        eng.extend(pts)
        assert eng.snapshot().partition() == baseline.snapshot().partition()

    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    def test_metrics_supported(self, metric):
        eng = sgb_stream("any", eps=1.0, metric=metric, batch_size=1)
        eng.extend([(0, 0), (0.9, 0), (5, 5)])
        assert eng.snapshot().n_groups == 2


class TestStats:
    def test_counters(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.extend(cluster_points())
        st = eng.stats
        assert st.points == 5
        assert st.index_probes == 5
        assert st.groups_created == 5
        # 5 singletons merged down to 2 components
        assert st.groups_merged == 3
        assert eng.engine.n_groups == 2

    def test_distance_counting_always_on(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.extend(cluster_points())
        assert eng.stats.distance_computations > 0


class TestValidation:
    def test_rejects_nonpositive_eps(self):
        with pytest.raises(InvalidParameterError):
            sgb_stream("any", eps=0, batch_size=1)
        with pytest.raises(InvalidParameterError):
            sgb_stream("any", eps=-1, batch_size=1)
        with pytest.raises(InvalidParameterError):
            sgb_stream("any", eps=float("nan"), batch_size=1)

    def test_rejects_nan_coordinates(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        with pytest.raises(InvalidCoordinateError):
            eng.insert((0, float("nan")))
        with pytest.raises(InvalidCoordinateError):
            eng.insert((float("inf"), 0))
        # the bad point must not have been ingested
        assert eng.n_points == 0

    def test_rejects_mixed_dimensions(self):
        eng = sgb_stream("any", eps=1.0, batch_size=1)
        eng.insert((0, 0))
        with pytest.raises(DimensionMismatchError):
            eng.insert((1, 2, 3))

    def test_rejects_unknown_index(self):
        with pytest.raises(InvalidParameterError):
            sgb_stream("any", eps=1.0, strategy="btree", batch_size=1)
