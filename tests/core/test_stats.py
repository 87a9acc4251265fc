"""Instrumentation tests: counting similarity-predicate evaluations."""

import pytest

from repro.core.distance import L2, LINF, CountingMetric, MinkowskiMetric
from repro.core.sgb_all import SGBAllOperator
from repro.core.sgb_any import SGBAnyOperator
from tests.conftest import random_points


class TestCountingMetric:
    def test_counts_both_entry_points(self):
        m = CountingMetric(L2)
        m.distance((0, 0), (1, 1))
        m.within((0, 0), (1, 1), 2)
        assert m.calls == 2
        m.reset()
        assert m.calls == 0

    def test_preserves_name_and_results(self):
        m = CountingMetric(LINF)
        assert m.name == "linf"
        assert m.distance((0, 0), (3, 4)) == 4.0
        assert m.within((0, 0), (3, 4), 4)
        assert not m.within((0, 0), (3, 4), 3.9)


class TestOperatorCounters:
    def test_disabled_by_default(self):
        op = SGBAllOperator(eps=1)
        with pytest.raises(RuntimeError, match="count_distance"):
            _ = op.distance_computations
        op = SGBAnyOperator(eps=1)
        with pytest.raises(RuntimeError, match="count_distance"):
            _ = op.distance_computations

    def test_all_pairs_quadratic_counts(self):
        pts = random_points(60, seed=2)
        op = SGBAllOperator(eps=0.5, metric="l2", strategy="all-pairs",
                            on_overlap="eliminate", tiebreak="first",
                            count_distance_computations=True)
        op.add_many(pts).finalize()
        n = len(pts)
        # all-pairs inspects every previously seen point (some early exits
        # are impossible under ELIMINATE)
        assert op.distance_computations >= n * (n - 1) / 4

    def test_index_counts_far_below_all_pairs(self):
        pts = random_points(300, seed=3)
        counts = {}
        for strategy in ("all-pairs", "index"):
            op = SGBAllOperator(eps=0.3, metric="l2", strategy=strategy,
                                on_overlap="eliminate", tiebreak="first",
                                count_distance_computations=True)
            op.add_many(pts).finalize()
            counts[strategy] = op.distance_computations
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
            op = mode(eps=0.3, metric=metric, strategy=strategy,
                      count_distance_computations=True, **kwargs)
            op.add_many(pts).finalize()
            return op.distance_computations

        ceiling = evaluations("all-pairs")
        assert all(evaluations(s) <= ceiling for s in strategies)

    def test_linf_indexed_any_needs_no_distances(self):
        pts = random_points(100, seed=4)
        op = SGBAnyOperator(eps=0.3, metric="linf", strategy="index",
                            count_distance_computations=True)
        op.add_many(pts).finalize()
        # the window query IS the L-inf ball: zero predicate evaluations
        assert op.distance_computations == 0

    def test_counting_does_not_change_results(self):
        pts = random_points(150, seed=5)
        plain = SGBAllOperator(eps=0.4, metric="l2", strategy="index",
                               on_overlap="form-new-group",
                               tiebreak="first")
        counted = SGBAllOperator(eps=0.4, metric="l2", strategy="index",
                                 on_overlap="form-new-group",
                                 tiebreak="first",
                                 count_distance_computations=True)
        assert (plain.add_many(pts).finalize()
                == counted.add_many(pts).finalize())


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
