"""SGB-All unit tests: semantics of the three ON-OVERLAP clauses."""

import random

import pytest
from hypothesis import given, settings

from repro import kernels
from repro.core.api import sgb_all
from repro.core.distance import resolve_metric
from repro.core.result import ELIMINATED
from repro.core.sgb_all import GraphStrategy, SGBAllOperator, normalize_overlap
from repro.errors import InvalidParameterError
from repro.obs.trace import Tracer
from repro.stats.chooser import ALL_STRATEGIES as STRATEGIES
from tests.conftest import decimal_lattices


class TestNormalizeOverlap:
    @pytest.mark.parametrize("raw,canon", [
        ("JOIN-ANY", "join-any"), ("join_any", "join-any"),
        ("Eliminate", "eliminate"),
        ("FORM-NEW-GROUP", "form-new-group"),
        ("form-new", "form-new-group"), ("form_new_group", "form-new-group"),
    ])
    def test_spellings(self, raw, canon):
        assert normalize_overlap(raw) == canon

    def test_unknown(self):
        with pytest.raises(InvalidParameterError):
            normalize_overlap("drop")


class TestParameterValidation:
    def test_negative_eps(self):
        with pytest.raises(InvalidParameterError):
            SGBAllOperator(eps=-1)

    def test_unknown_strategy(self):
        with pytest.raises(InvalidParameterError):
            SGBAllOperator(eps=1, strategy="btree")

    def test_unknown_tiebreak(self):
        with pytest.raises(InvalidParameterError):
            SGBAllOperator(eps=1, tiebreak="last")

    def test_dimension_consistency(self):
        op = SGBAllOperator(eps=1)
        op.add((1, 2))
        with pytest.raises(InvalidParameterError):
            op.add((1, 2, 3))

    def test_finalize_twice(self):
        op = SGBAllOperator(eps=1)
        op.add((0, 0))
        op.finalize()
        with pytest.raises(RuntimeError):
            op.finalize()
        with pytest.raises(RuntimeError):
            op.add((1, 1))


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestBasicGrouping:
    def test_empty_input(self, strategy):
        res = sgb_all([], eps=1, strategy=strategy)
        assert res.n_points == 0 and res.n_groups == 0

    def test_single_point(self, strategy):
        res = sgb_all([(1, 1)], eps=1, strategy=strategy)
        assert res.labels == [0]

    def test_two_far_points(self, strategy):
        res = sgb_all([(0, 0), (10, 10)], eps=1, strategy=strategy)
        assert res.n_groups == 2

    def test_clique_forms_one_group(self, strategy):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        res = sgb_all(pts, eps=2, metric="l2", strategy=strategy)
        assert res.n_groups == 1
        assert res.group_sizes() == [4]

    def test_eps_zero_is_equality_grouping(self, strategy):
        pts = [(1, 1), (2, 2), (1, 1), (3, 3), (2, 2), (1, 1)]
        if strategy == "graph":  # its join bins by floor(v / eps)
            with pytest.raises(InvalidParameterError, match="eps > 0"):
                sgb_all(pts, eps=0, strategy=strategy)
            return
        res = sgb_all(pts, eps=0, strategy=strategy, tiebreak="first")
        assert sorted(res.group_sizes()) == [1, 2, 3]
        groups = res.groups()
        for members in groups.values():
            values = {pts[i] for i in members}
            assert len(values) == 1

    def test_identical_points_single_group(self, strategy):
        res = sgb_all([(5, 5)] * 7, eps=0.5, strategy=strategy)
        assert res.n_groups == 1
        assert res.group_sizes() == [7]

    def test_one_dimensional_points(self, strategy):
        res = sgb_all([(1,), (1.5,), (9,)], eps=1, strategy=strategy)
        assert res.n_groups == 2


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestJoinAny:
    def test_overlap_point_joins_exactly_one(self, strategy):
        # x is a candidate for both pairs; JOIN-ANY places it in one
        pts = [(0, 0), (1, 0), (4, 0), (5, 0), (2.5, 0)]
        res = sgb_all(pts, eps=2.6, metric="l2", on_overlap="join-any",
                      strategy=strategy, tiebreak="first")
        assert sorted(res.group_sizes()) == [2, 3]
        assert res.n_eliminated == 0

    def test_random_tiebreak_is_seeded(self, strategy):
        pts = [(0, 0), (1, 0), (4, 0), (5, 0), (2.5, 0)]
        a = sgb_all(pts, eps=2.6, on_overlap="join-any", strategy=strategy,
                    tiebreak="random", seed=123)
        b = sgb_all(pts, eps=2.6, on_overlap="join-any", strategy=strategy,
                    tiebreak="random", seed=123)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_random_draws_match_all_pairs(self, strategy, seed):
        # Dense enough that many points have several candidate groups:
        # every strategy draws from the RNG at the same points, over the
        # same gid-ordered candidate lists.
        pts = [((i * 37) % 41 / 10.0, (i * 53) % 43 / 10.0)
               for i in range(160)]
        kwargs = dict(eps=0.9, on_overlap="join-any", tiebreak="random",
                      seed=seed)
        assert (sgb_all(pts, strategy=strategy, **kwargs).labels
                == sgb_all(pts, strategy="all-pairs", **kwargs).labels)


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestEliminate:
    def test_multi_candidate_point_dropped(self, strategy):
        pts = [(1, 6), (2, 7), (6, 4), (7, 5), (4, 5.5)]  # Example 1
        res = sgb_all(pts, eps=3, metric="linf", on_overlap="eliminate",
                      strategy=strategy)
        assert res.labels[4] == ELIMINATED
        assert sorted(res.group_sizes()) == [2, 2]

    def test_partial_overlap_members_removed(self, strategy):
        # g1 = {(0,0), (3,0)}; new point (4,0) is within eps=3.5 of (3,0)
        # only -> g1 is an overlap group, (3,0) is deleted (Figure 4's a3).
        pts = [(0, 0), (3, 0), (4.5, 0)]
        res = sgb_all(pts, eps=3.5, metric="linf", on_overlap="eliminate",
                      strategy=strategy)
        assert res.labels[1] == ELIMINATED
        assert res.labels[0] != ELIMINATED
        assert res.labels[2] != ELIMINATED

    def test_no_overlap_nothing_eliminated(self, strategy):
        pts = [(0, 0), (1, 1), (50, 50), (51, 51)]
        res = sgb_all(pts, eps=3, metric="linf", on_overlap="eliminate",
                      strategy=strategy)
        assert res.n_eliminated == 0
        assert sorted(res.group_sizes()) == [2, 2]


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestFormNewGroup:
    def test_overlap_point_gets_new_group(self, strategy):
        pts = [(1, 6), (2, 7), (6, 4), (7, 5), (4, 5.5)]  # Example 1
        res = sgb_all(pts, eps=3, metric="linf", on_overlap="form-new-group",
                      strategy=strategy)
        assert sorted(res.group_sizes()) == [1, 2, 2]
        assert res.labels[4] not in (res.labels[0], res.labels[2])
        assert res.n_eliminated == 0

    def test_every_point_is_placed(self, strategy):
        pts = [(i * 0.8, 0) for i in range(12)]
        res = sgb_all(pts, eps=2, metric="linf",
                      on_overlap="form-new-group", strategy=strategy)
        assert res.n_eliminated == 0
        assert all(lb >= 0 for lb in res.labels)

    def test_recursive_regrouping_forms_cliques(self, strategy):
        # chain: overlaps cascade into the deferred set, which must itself
        # be grouped into valid cliques
        pts = [(0, 0), (2, 0), (4, 0), (6, 0), (3, 0), (5, 0)]
        res = sgb_all(pts, eps=2.5, metric="linf",
                      on_overlap="form-new-group", strategy=strategy)
        for members in res.groups().values():
            coords = [pts[i] for i in members]
            for i, a in enumerate(coords):
                for b in coords[i + 1:]:
                    assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 2.5


class TestFormNewGroupTerminates:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=25, deadline=None)
    @given(case=decimal_lattices(max_points=30))
    def test_every_point_labelled_in_fewer_than_n_passes(self, strategy,
                                                         case):
        """Each regroup pass groups at least one point of ``S'``, so the
        walk labels every point and runs fewer passes than there are
        points."""
        points, eps = case
        tracer = Tracer()
        op = SGBAllOperator(eps, on_overlap="form-new-group",
                            strategy=strategy, tracer=tracer)
        res = op.add_many(points).finalize()
        assert res.n_eliminated == 0
        assert sum(res.group_sizes()) == len(points)
        (fin,) = [r for r in tracer.records() if r.name == "finalize"]
        assert fin.attrs["regroup_passes"] < len(points)


class TestUseHullToggle:
    def test_hull_off_same_result(self):
        import random

        rng = random.Random(9)
        pts = [(rng.uniform(0, 5), rng.uniform(0, 5)) for _ in range(150)]
        for clause in ("join-any", "eliminate", "form-new-group"):
            on = sgb_all(pts, 1.0, "l2", clause, "index", tiebreak="first",
                         use_hull=True)
            off = sgb_all(pts, 1.0, "l2", clause, "index", tiebreak="first",
                          use_hull=False)
            assert on == off


class TestSliverHull:
    """A group whose hull is a sliver narrower than 1e-12 used to
    "contain" (0, 2), so the hull never learnt it and (1, 0) — √5 from
    (0, 2) — was refined against the wrong vertices and joined."""

    @pytest.mark.parametrize("width", [8.55e-239, 1e-13])
    @pytest.mark.parametrize("clause, expected", [
        ("join-any", [0, 0, 0, 0, 1]),
        ("eliminate", [ELIMINATED, ELIMINATED, ELIMINATED, 0, 1]),
        ("form-new-group", [2, 2, 2, 0, 1]),
    ])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_far_point_stays_out(self, width, clause, expected, strategy):
        pts = [(0, 0), (width, 0), (0, 1), (0, 2), (1, 0)]
        result = sgb_all(pts, 2, "l2", clause, strategy, tiebreak="first")
        assert list(result.labels) == expected


class TestGraphStrategy:
    """``graph`` spools and groups at the walk: a snapshot runs it over
    the prefix without touching the RNG the final walk draws from."""

    @pytest.mark.parametrize("clause",
                             ["join-any", "eliminate", "form-new-group"])
    def test_snapshot_equals_batch_at_every_prefix(self, clause):
        pts = [((i * 37) % 41 / 10.0, (i * 53) % 43 / 10.0)
               for i in range(60)]
        kwargs = dict(eps=0.9, on_overlap=clause, tiebreak="random", seed=5)
        op = SGBAllOperator(strategy="graph", **kwargs)
        for n, point in enumerate(pts, 1):
            op.add(point)
            assert op.snapshot() == sgb_all(pts[:n], strategy="graph",
                                            **kwargs), n
        assert op.finalize() == sgb_all(pts, strategy="all-pairs", **kwargs)

    def test_counters(self):
        pts = [(0, 0), (1, 0), (4, 0), (5, 0), (2.5, 0), (30, 30)]
        op = SGBAllOperator(eps=2.6, strategy="graph", tiebreak="first")
        op.add_many(pts).finalize()
        stats = op.stats
        assert stats.index_probes == len(pts)  # points placed
        # placed neighbours tallied per point: 0, 1, 0, 1, 4 (x), 0
        assert stats.candidates == 6
        assert stats.groups_created == 3
        assert stats.distance_computations == op.metric.calls > 0


def sparse_shapes(seed):
    """87 points at seeded cells of a 10-apart lattice (ε = 1): 48
    isolated points, then 4 pairs, 3 triangles, 3 four-point paths and
    2 five-point stars, shuffled so the shapes interleave in arrival
    order.  A path's middle points and a star's centre can meet two or
    more groups, so each overlap clause has something to arbitrate."""
    rng = random.Random(seed)
    cells = [(10.0 * (k % 10), 10.0 * (k // 10))
             for k in rng.sample(range(100), 48 + 4 + 3 + 3 + 2)]
    cells.reverse()
    shapes = []
    for _ in range(48):
        x, y = cells.pop()
        shapes.append([(x + rng.uniform(-0.02, 0.02),
                        y + rng.uniform(-0.02, 0.02))])
    for _ in range(4):
        x, y = cells.pop()
        shapes.append([(x, y), (x + 0.6 + rng.uniform(-0.02, 0.02), y)])
    for _ in range(3):
        x, y = cells.pop()
        shapes.append([(x, y), (x + 0.8, y), (x + 0.4, y + 0.69)])
    for _ in range(3):
        x, y = cells.pop()
        shapes.append([(x + 0.7 * i, y + rng.uniform(-0.02, 0.02))
                       for i in range(4)])
    for _ in range(2):
        x, y = cells.pop()
        shapes.append([(x, y), (x + 0.9, y), (x - 0.9, y), (x, y + 0.9),
                       (x, y - 0.9)])
    points = [p for shape in shapes for p in shape]
    rng.shuffle(points)
    return points


CLAUSES = ["join-any", "eliminate", "form-new-group"]
STAT_FIELDS = ("points", "index_probes", "candidates", "groups_created",
               "eliminated", "deferred", "groups_dropped")
#: ``STAT_FIELDS`` of a ``graph`` run over ``sparse_shapes(3)`` with
#: ε = 1, ``tiebreak="random"``, per (clause, seed), as recorded while
#: every point still went through FindCloseGroups.
SPARSE_GOLDEN = {
    ("join-any", 0): (87, 87, 30, 70, 0, 0, 0),
    ("join-any", 1): (87, 87, 30, 71, 0, 0, 0),
    ("join-any", 2): (87, 87, 30, 71, 0, 0, 0),
    ("eliminate", 0): (87, 87, 27, 69, 5, 0, 0),
    ("eliminate", 1): (87, 87, 27, 69, 5, 0, 0),
    ("eliminate", 2): (87, 87, 27, 69, 5, 0, 0),
    ("form-new-group", 0): (87, 92, 27, 74, 0, 5, 0),
    ("form-new-group", 1): (87, 92, 27, 74, 0, 5, 0),
    ("form-new-group", 2): (87, 92, 27, 74, 0, 5, 0),
}


class TestGraphIsolatedPoints:
    """Under ``graph`` a point with no ε-neighbour opens its own group
    without FindCloseGroups; labels and counters must not notice."""

    POINTS = sparse_shapes(3)

    def test_input_is_mostly_isolated(self):
        adjacency = kernels.csr_adjacency(
            len(self.POINTS),
            kernels.eps_self_join(self.POINTS, 1.0, resolve_metric("l2")))
        indptr = adjacency[0]
        degrees = [indptr[i + 1] - indptr[i] for i in range(len(indptr) - 1)]
        assert degrees.count(0) == 48 >= len(self.POINTS) / 2
        assert max(degrees) == 4  # a star's centre

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("clause", CLAUSES)
    def test_labels_equal_all_pairs(self, clause, seed):
        kwargs = dict(eps=1.0, on_overlap=clause, tiebreak="random",
                      seed=seed)
        assert (sgb_all(self.POINTS, strategy="graph", **kwargs)
                == sgb_all(self.POINTS, strategy="all-pairs", **kwargs))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("clause", CLAUSES)
    def test_counters_equal_golden(self, clause, seed, monkeypatch):
        probed = []
        find = GraphStrategy.find_close_groups

        def counting_find(strat, pid, point, need_overlap):
            probed.append(pid)
            return find(strat, pid, point, need_overlap)

        monkeypatch.setattr(GraphStrategy, "find_close_groups",
                            counting_find)
        op = SGBAllOperator(eps=1.0, on_overlap=clause, strategy="graph",
                            tiebreak="random", seed=seed)
        op.add_many(self.POINTS).finalize()
        got = tuple(getattr(op.stats, f) for f in STAT_FIELDS)
        assert got == SPARSE_GOLDEN[clause, seed]
        # The 48 isolated points were counted but never probed.
        assert len(probed) == op.stats.index_probes - 48

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_snapshot_equals_batch_at_every_prefix(self, clause):
        kwargs = dict(eps=1.0, on_overlap=clause, tiebreak="random",
                      seed=1)
        op = SGBAllOperator(strategy="graph", **kwargs)
        for n, point in enumerate(self.POINTS, 1):
            op.add(point)
            assert op.snapshot() == sgb_all(self.POINTS[:n],
                                            strategy="graph", **kwargs), n
        assert op.finalize() == sgb_all(self.POINTS, strategy="all-pairs",
                                        **kwargs)
