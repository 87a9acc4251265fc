"""Instrumentation tests: counting similarity-predicate evaluations."""

import pytest

from repro import kernels
from repro.core.api import sgb_stream
from repro.core.distance import L2, LINF, CountingMetric, MinkowskiMetric
from repro.core.sgb_all import SGBAllOperator
from repro.core.sgb_any import SGBAnyOperator
from repro.engine.database import Database
from repro.obs.export import parse_prometheus_text
from repro.obs.metrics import SGB_COUNTER_FIELDS
from repro.stats.chooser import ALL_STRATEGIES, ANY_STRATEGIES
from tests.conftest import random_points


class TestCountingMetric:
    def test_counts_both_entry_points(self):
        m = CountingMetric(L2)
        m.distance((0, 0), (1, 1))
        m.within((0, 0), (1, 1), 2)
        assert m.calls == 2

    def test_preserves_name_and_results(self):
        m = CountingMetric(LINF)
        assert m.name == "linf"
        assert m.distance((0, 0), (3, 4)) == 4.0
        assert m.within((0, 0), (3, 4), 4)
        assert not m.within((0, 0), (3, 4), 3.9)


class TestOperatorCounters:
    def test_all_pairs_quadratic_counts(self):
        pts = random_points(60, seed=2)
        op = SGBAllOperator(eps=0.5, metric="l2", strategy="all-pairs",
                            on_overlap="eliminate", tiebreak="first")
        op.add_many(pts).finalize()
        n = len(pts)
        # all-pairs inspects every previously seen point (some early exits
        # are impossible under ELIMINATE)
        assert op.stats.distance_computations >= n * (n - 1) / 4

    def test_index_counts_far_below_all_pairs(self):
        pts = random_points(300, seed=3)
        counts = {}
        for strategy in ("all-pairs", "index"):
            op = SGBAllOperator(eps=0.3, metric="l2", strategy=strategy,
                                on_overlap="eliminate", tiebreak="first")
            op.add_many(pts).finalize()
            counts[strategy] = op.stats.distance_computations
        assert counts["index"] * 20 < counts["all-pairs"]

    @pytest.mark.parametrize("mode,strategies", [
        (SGBAllOperator, ("bounds-checking", "index")),
        (SGBAnyOperator, ("grid", "index")),
    ])
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_no_pruning_strategy_outcounts_all_pairs(self, mode, strategies,
                                                     metric):
        pts = random_points(300, seed=6)
        kwargs = {"tiebreak": "first"} if mode is SGBAllOperator else {}

        def evaluations(strategy):
            op = mode(eps=0.3, metric=metric, strategy=strategy, **kwargs)
            op.add_many(pts).finalize()
            return op.stats.distance_computations

        ceiling = evaluations("all-pairs")
        assert all(evaluations(s) <= ceiling for s in strategies)

    def test_linf_indexed_any_needs_no_distances(self):
        pts = random_points(100, seed=4)
        op = SGBAnyOperator(eps=0.3, metric="linf", strategy="index")
        op.add_many(pts).finalize()
        # the window query IS the L-inf ball: zero predicate evaluations
        assert op.stats.distance_computations == 0

    def test_counting_does_not_change_results(self):
        """A metric given by name and a ``CountingMetric`` passed in group
        alike; the one passed in is the operator's counter, not wrapped
        again."""
        pts = random_points(150, seed=5)
        named = SGBAllOperator(eps=0.4, metric="l2", strategy="index",
                               on_overlap="form-new-group",
                               tiebreak="first")
        counter = CountingMetric(L2)
        given = SGBAllOperator(eps=0.4, metric=counter, strategy="index",
                               on_overlap="form-new-group",
                               tiebreak="first")
        assert given.metric is counter
        assert named.metric.inner is L2
        assert (named.add_many(pts).finalize()
                == given.add_many(pts).finalize())
        assert counter.calls == given.stats.distance_computations == \
            named.stats.distance_computations > 0


#: The nine ``SGB_COUNTER_FIELDS`` of each operator over ``GOLDEN_POINTS``
#: (SGB-Any at ε 0.4, SGB-All at ε 0.3 with seed 2, an SGB-Any stream in
#: micro-batches of 16), as both backends reported them when distance
#: counting was an option and it was switched on.
GOLDEN_POINTS = random_points(240, seed=17, span=5.0)
COUNTED = {
    ("any", "all-pairs"): (240, 240, 231, 0, 0, 0, 240, 28680, 28680),
    ("any", "index"): (240, 240, 231, 0, 0, 0, 240, 658, 658),
    ("any", "grid"): (240, 240, 231, 0, 0, 0, 240, 658, 658),
    ("join-any", "all-pairs"): (240, 122, 0, 0, 0, 0, 240, 17743, 17845),
    ("eliminate", "all-pairs"): (240, 116, 0, 0, 67, 0, 240, 17282, 23648),
    ("form-new-group", "all-pairs"):
        (240, 170, 0, 0, 0, 78, 318, 18897, 25699),
    ("join-any", "bounds-checking"): (240, 122, 0, 0, 0, 0, 240, 17743, 256),
    ("eliminate", "bounds-checking"): (240, 116, 0, 0, 67, 0, 240, 17282, 484),
    ("form-new-group", "bounds-checking"):
        (240, 170, 0, 0, 0, 78, 318, 18897, 561),
    ("join-any", "index"): (240, 122, 0, 0, 0, 0, 240, 289, 256),
    ("eliminate", "index"): (240, 116, 0, 0, 67, 0, 240, 257, 484),
    ("form-new-group", "index"): (240, 170, 0, 0, 0, 78, 318, 300, 561),
    ("join-any", "graph"): (240, 122, 0, 0, 0, 0, 240, 288, 377),
    ("eliminate", "graph"): (240, 116, 0, 0, 67, 0, 240, 230, 377),
    ("form-new-group", "graph"): (240, 170, 0, 0, 0, 78, 318, 271, 377),
    ("stream", "grid"): (240, 240, 231, 0, 0, 0, 240, 658, 658),
}


class TestCountedWithoutOptions:
    """An operator built with no option and no bag counts everything,
    ``distance_computations`` and the grid's ``candidates`` included."""

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_stats_equal_the_counted_runs(self, backend):
        got = {}
        with kernels.use_backend(backend):
            for strategy in ANY_STRATEGIES:
                op = SGBAnyOperator(0.4, "l2", strategy)
                op.add_many(GOLDEN_POINTS).finalize()
                got[("any", strategy)] = op.stats
            for strategy in ALL_STRATEGIES:
                for clause in ("join-any", "eliminate", "form-new-group"):
                    op = SGBAllOperator(0.3, "l2", clause, strategy, seed=2)
                    op.add_many(GOLDEN_POINTS).finalize()
                    got[(clause, strategy)] = op.stats
            stream = sgb_stream("any", eps=0.4, batch_size=16)
            stream.extend(GOLDEN_POINTS)
            stream.snapshot()
            got[("stream", "grid")] = stream.stats
        assert {key: tuple(getattr(stats, f) for f in SGB_COUNTER_FIELDS)
                for key, stats in got.items()} == COUNTED

    def test_stream_view_metrics_count_distances(self):
        db = Database()
        db.execute("CREATE TABLE pts (x float, y float)")
        db.insert("pts", GOLDEN_POINTS)
        db.create_stream_view("sv", "pts", ["x", "y"], "any", eps=0.4,
                              batch_size=16)
        parsed = parse_prometheus_text(db.metrics_snapshot())
        stream = (("source", "stream:sv"),)
        assert parsed[("repro_sgb_points_total", stream)] == 240
        assert parsed[("repro_sgb_distance_computations_total", stream)] \
            == COUNTED[("stream", "grid")][-1]


class TestMinkowskiRefinement:
    """The hull refinement must be exact for non-Euclidean Minkowski
    metrics too (farthest member is a hull vertex under any norm)."""

    def test_l1_strategies_agree(self):
        from repro.core.api import sgb_all

        pts = random_points(120, seed=6)
        reference = sgb_all(pts, 0.8, "l1", "eliminate", "all-pairs",
                            tiebreak="first")
        for strategy in ("bounds-checking", "index"):
            assert sgb_all(pts, 0.8, "l1", "eliminate", strategy,
                           tiebreak="first") == reference

    def test_l1_groups_are_l1_cliques(self):
        from repro.core.api import sgb_all

        pts = random_points(100, seed=7)
        res = sgb_all(pts, 0.8, MinkowskiMetric(1), "join-any", "index",
                      tiebreak="first")
        for members in res.groups().values():
            coords = [pts[i] for i in members]
            for i, a in enumerate(coords):
                for b in coords[i + 1:]:
                    assert abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 0.8 + 1e-9
