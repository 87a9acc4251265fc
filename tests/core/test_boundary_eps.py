"""Boundary behaviour: points at exactly eps, duplicates, and the
distance-computation ordering the paper's pruning strategies promise.

The similarity predicate is *closed* (``d(p, q) <= eps`` groups p and q),
so points separated by exactly eps must land in one group under every
strategy and every ON-OVERLAP clause.

"Exactly eps" in floating point is decided by one arithmetic — the
predicate's — however the pair is found: :class:`TestDecimalLattice` holds
every SGB-All strategy, the streaming engine, partitioned execution and SQL
to the all-pairs answer on decimal lattices, where ``v - eps <= q`` and
``|q - v| <= eps`` round apart.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.api import sgb_all, sgb_any, sgb_stream
from repro.core.distance import LINF
from repro.core.groups import Group
from repro.core.sgb_all import SGBAllOperator
from repro.engine.database import Database
from repro.stats.chooser import ALL_STRATEGIES, ANY_STRATEGIES
from tests.conftest import decimal_lattice, decimal_lattices

OVERLAP_CLAUSES = ["join-any", "eliminate", "form-new-group"]


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
            stream = sgb_stream("any", eps=0.1, strategy=strategy, points=pts)
            assert stream.snapshot().labels == [0, 0]

    @pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
    def test_boundary_closed_for_every_metric(self, metric):
        # Axis-aligned pair: all three Minkowski metrics give distance 1.
        result = sgb_all([(0.0, 0.0), (1.0, 0.0)], eps=1.0, metric=metric,
                         tiebreak="first")
        assert result.labels == [0, 0]


BACKENDS = kernels.available_backends()
METRICS = ["l2", "linf"]
FILTERING = ["bounds-checking", "index"]
#: Every batch strategy checked against the all-pairs scan.
CHECKED = [s for s in ALL_STRATEGIES if s != "all-pairs"]
#: ``decimal_lattice`` seeds on which, before the ε-All test read the MBR
#: in the predicate's arithmetic, the three strategies disagreed for both
#: metrics under all three clauses.
LATTICE_SEEDS = (13, 19)

lattice_grid = pytest.mark.parametrize(
    "backend,metric,clause",
    [(b, m, c) for b in BACKENDS for m in METRICS for c in OVERLAP_CLAUSES],
)


def _labels(points, eps, strategy, **kwargs):
    return sgb_all(points, eps, strategy=strategy, tiebreak="first",
                   **kwargs).labels


class TestDecimalLattice:
    """One answer on exact float ties: every way of running SGB-All
    equals the all-pairs scan of the same input order."""

    @staticmethod
    def _check_strategies(points, eps, metric, clause):
        reference = _labels(points, eps, "all-pairs", metric=metric,
                            on_overlap=clause)
        for strategy in CHECKED:
            assert _labels(points, eps, strategy, metric=metric,
                           on_overlap=clause) == reference, strategy

    @lattice_grid
    @pytest.mark.parametrize("seed", LATTICE_SEEDS)
    def test_strategies_equal_all_pairs_seeded(self, backend, metric,
                                               clause, seed):
        points, eps = decimal_lattice(seed)
        with kernels.use_backend(backend):
            self._check_strategies(points, eps, metric, clause)

    @lattice_grid
    @settings(max_examples=25, deadline=None)
    @given(case=decimal_lattices())
    def test_strategies_equal_all_pairs(self, backend, metric, clause, case):
        with kernels.use_backend(backend):
            self._check_strategies(*case, metric, clause)

    @lattice_grid
    @settings(max_examples=10, deadline=None)
    @given(case=decimal_lattices(max_points=30), every=st.integers(1, 7))
    def test_stream_snapshots_equal_all_pairs(self, backend, metric, clause,
                                              case, every):
        points, eps = case
        with kernels.use_backend(backend):
            for strategy in FILTERING:
                stream = sgb_stream("all", eps=eps, metric=metric,
                                    on_overlap=clause, strategy=strategy,
                                    tiebreak="first", batch_size=1)
                for n, point in enumerate(points, 1):
                    stream.insert(point)
                    if n % every == 0:
                        assert stream.snapshot().labels == _labels(
                            points[:n], eps, "all-pairs", metric=metric,
                            on_overlap=clause), (strategy, n)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("clause", OVERLAP_CLAUSES)
    def test_partitioned_equals_all_pairs(self, metric, clause):
        points, eps = decimal_lattice(LATTICE_SEEDS[0], n=300)
        keys = [i % 3 for i in range(len(points))]
        reference = _labels(points, eps, "all-pairs", metric=metric,
                            on_overlap=clause, partitions=keys)
        for strategy in CHECKED:
            assert _labels(points, eps, strategy, metric=metric,
                           on_overlap=clause, partitions=keys) == reference, \
                strategy

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("clause", OVERLAP_CLAUSES)
    @pytest.mark.parametrize("seed", LATTICE_SEEDS)
    def test_sql_equals_all_pairs(self, metric, clause, seed):
        points, eps = decimal_lattice(seed, n=100)
        keys = ", ".join("xyz"[:len(points[0])])
        rows = [(i,) + p + (None,) * (3 - len(p))
                for i, p in enumerate(points)]
        answers = []
        for strategy in ["all-pairs"] + CHECKED:
            db = Database(sgb_all_strategy=strategy, tiebreak="first")
            db.execute("CREATE TABLE t (id int, x float, y float, z float)")
            db.insert("t", rows)
            answers.append(db.query(
                f"SELECT array_agg(id) FROM t GROUP BY {keys} "
                f"DISTANCE-TO-ALL {metric} WITHIN {eps!r} "
                f"ON-OVERLAP {clause}").rows)
        labels = _labels(points, eps, "all-pairs", metric=metric,
                         on_overlap=clause)
        groups = {}
        for i, label in enumerate(labels):
            if label >= 0:
                groups.setdefault(label, []).append(i)
        assert answers[0] == [(ids,) for _, ids in sorted(groups.items())]
        assert all(answer == answers[0] for answer in answers[1:])


class TestRectanglesGatherThePredicateDecides:
    """The fact the one-rectangle design rests on."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(case=decimal_lattices(), doomed=st.sets(st.integers(0, 19)))
    def test_linf_accepts_is_the_member_scan(self, backend, case, doomed):
        # Any member set, clique or not: the MBR's corners are member
        # coordinates and fl(p - q) is monotone in q.  Every drawn point
        # probes a group made of the first half of them.
        points, eps = case
        with kernels.use_backend(backend):
            group = Group(0, eps, LINF, use_hull=False)
            for pid, point in enumerate(points[:len(points) // 2 + 1]):
                group.add(pid, point)
            for _ in range(2):
                for q in points:
                    scan = bool(group.points) and all(
                        LINF.within(q, m, eps) for m in group.points)
                    assert group.accepts(q) == scan, q
                group.remove_members(doomed)


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
        op = SGBAllOperator(eps=1.0, strategy=strategy, tiebreak="first",
                            count_distance_computations=True)
        op.add_many(self._clustered_points())
        op.finalize()
        return op.stats.distance_computations

    @pytest.mark.parametrize("strategy", ["bounds-checking", "index"])
    def test_pruning_strictly_below_all_pairs(self, strategy):
        assert self._distance_count(strategy) < \
            self._distance_count("all-pairs")

    def test_counters_distinguish_index_from_linear_scan(self):
        def candidates(strategy):
            op = SGBAllOperator(eps=1.0, strategy=strategy,
                                tiebreak="first",
                                count_distance_computations=True)
            op.add_many(self._clustered_points())
            op.finalize()
            return op.stats.candidates

        # The R-tree window query examines far fewer group candidates than
        # a linear registry scan on a clustered workload.
        assert candidates("index") < candidates("all-pairs")
