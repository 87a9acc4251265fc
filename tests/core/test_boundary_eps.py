"""Boundary behaviour: points at exactly eps, duplicates, and the
distance-computation ordering the paper's pruning strategies promise.

The similarity predicate is *closed* (``d(p, q) <= eps`` groups p and q),
so points separated by exactly eps must land in one group under every
strategy and every ON-OVERLAP clause.
"""

import pytest

from repro import kernels
from repro.core.api import sgb_all, sgb_any, sgb_stream
from repro.core.sgb_all import SGBAllOperator
from repro.obs import MetricBag

ALL_STRATEGIES = ["all-pairs", "bounds-checking", "index"]
OVERLAP_CLAUSES = ["join-any", "eliminate", "form-new-group"]
ANY_STRATEGIES = ["all-pairs", "index", "grid"]


class TestExactEpsBoundary:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("clause", OVERLAP_CLAUSES)
    def test_pair_at_exactly_eps_is_one_group(self, strategy, clause):
        # |(0,0) - (3,4)| == 5 exactly; the closed predicate keeps them
        # together, so no overlap ever arises and every clause agrees.
        result = sgb_all([(0.0, 0.0), (3.0, 4.0)], eps=5.0,
                         strategy=strategy, on_overlap=clause,
                         tiebreak="first")
        assert result.labels == [0, 0]

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("clause", OVERLAP_CLAUSES)
    def test_pair_just_past_eps_splits(self, strategy, clause):
        result = sgb_all([(0.0, 0.0), (5.000001, 0.0)], eps=5.0,
                         strategy=strategy, on_overlap=clause,
                         tiebreak="first")
        assert sorted(result.labels) == [0, 1]

    @pytest.mark.parametrize("strategy", ANY_STRATEGIES)
    def test_any_pair_at_exactly_eps_is_one_group(self, strategy):
        result = sgb_any([(0.0, 0.0), (3.0, 4.0)], eps=5.0,
                         strategy=strategy)
        assert result.labels == [0, 0]

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("strategy", ANY_STRATEGIES)
    @pytest.mark.parametrize("order", [1, -1])
    def test_any_tie_does_not_depend_on_order(self, strategy, backend,
                                              order):
        # |-5e-324 - 0.1| rounds to exactly eps, but ``0.1 - 0.1`` rounds
        # the probe window of 0.1 to [0.0, 0.2] — which excludes the
        # denormal — and ``v // eps`` puts the pair two cells apart.  The
        # window test used to find the pair from one side only.
        pts = [(-5e-324, 0.0), (0.1, 0.0)][::order]
        with kernels.use_backend(backend):
            assert sgb_any(pts, 0.1, strategy=strategy).labels == [0, 0]
            stream = sgb_stream("any", eps=0.1, index=strategy, points=pts)
            assert stream.snapshot().labels == [0, 0]

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_boundary_closed_for_every_metric(self, metric):
        # Axis-aligned pair: all three Minkowski metrics give distance 1.
        result = sgb_all([(0.0, 0.0), (1.0, 0.0)], eps=1.0, metric=metric,
                         tiebreak="first")
        assert result.labels == [0, 0]


class TestDuplicates:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    @pytest.mark.parametrize("clause", OVERLAP_CLAUSES)
    def test_duplicates_always_share_a_group(self, strategy, clause):
        pts = [(1.0, 1.0)] * 4 + [(9.0, 9.0)] * 2
        result = sgb_all(pts, eps=0.5, strategy=strategy,
                         on_overlap=clause, tiebreak="first")
        assert result.labels[:4] == [result.labels[0]] * 4
        assert result.labels[4:] == [result.labels[4]] * 2
        assert result.labels[0] != result.labels[4]

    def test_strategies_and_clauses_agree_on_boundary_workload(self):
        # Mixed workload: a duplicate pair, an exact-eps pair, a far point.
        pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (10.0, 0.0)]
        reference = None
        for strategy in ALL_STRATEGIES:
            for clause in OVERLAP_CLAUSES:
                labels = sgb_all(pts, eps=1.0, strategy=strategy,
                                 on_overlap=clause, tiebreak="first").labels
                if reference is None:
                    reference = labels
                assert labels == reference, (strategy, clause)


class TestPruningReducesDistanceComputations:
    @staticmethod
    def _clustered_points():
        # 8 well-separated clusters of 12 points each: a pruning strategy
        # only has to verify against the local cluster.
        pts = []
        for c in range(8):
            cx, cy = (c % 4) * 100.0, (c // 4) * 100.0
            for i in range(12):
                pts.append((cx + (i % 4) * 0.1, cy + (i // 4) * 0.1))
        return pts

    def _distance_count(self, strategy):
        bag = MetricBag()
        op = SGBAllOperator(eps=1.0, strategy=strategy, tiebreak="first",
                            metrics=bag)
        op.add_many(self._clustered_points())
        op.finalize()
        return bag.get("distance_computations")

    @pytest.mark.parametrize("strategy", ["bounds-checking", "index"])
    def test_pruning_strictly_below_all_pairs(self, strategy):
        assert self._distance_count(strategy) < \
            self._distance_count("all-pairs")

    def test_counters_distinguish_index_from_linear_scan(self):
        def candidates(strategy):
            bag = MetricBag()
            op = SGBAllOperator(eps=1.0, strategy=strategy,
                                tiebreak="first", metrics=bag)
            op.add_many(self._clustered_points())
            op.finalize()
            return bag.get("candidates")

        # The R-tree window query examines far fewer group candidates than
        # a linear registry scan on a clustered workload.
        assert candidates("index") < candidates("all-pairs")
