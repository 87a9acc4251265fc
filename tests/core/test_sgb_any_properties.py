"""Property-based tests for SGB-Any.

The defining property (Section 4.2): output groups are exactly the
connected components of the ε-neighbourhood graph.  We check against a
brute-force BFS oracle and networkx, and verify input-order independence —
a property SGB-All deliberately does *not* have, but SGB-Any must.
"""

import importlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.api import sgb_any
from repro.core.distance import resolve_metric
from repro.core.sgb_any import SGBAnyOperator
from repro.engine.database import Database
from repro.errors import InvalidCoordinateError
from repro.stats.chooser import ANY_STRATEGIES
from tests.conftest import connected_components, dist

coord = st.floats(0, 10, allow_nan=False)
points_strategy = st.lists(st.tuples(coord, coord), min_size=0, max_size=35)
eps_strategy = st.floats(0.2, 4, allow_nan=False)

STRATEGIES = list(ANY_STRATEGIES)
METRICS = ["l2", "linf"]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("strategy", STRATEGIES)
class TestComponentsOracle:
    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, eps=eps_strategy)
    def test_matches_bfs_oracle(self, strategy, metric, points, eps):
        res = sgb_any(points, eps, metric, strategy)
        ours = {frozenset(m) for m in res.groups().values()}
        oracle = {frozenset(c)
                  for c in connected_components(points, eps, metric)}
        assert ours == oracle


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_networkx(self, seed, metric):
        nx = pytest.importorskip("networkx")
        rng = random.Random(seed)
        points = [(rng.uniform(0, 10), rng.uniform(0, 10))
                  for _ in range(120)]
        eps = 0.9
        g = nx.Graph()
        g.add_nodes_from(range(len(points)))
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if dist(points[i], points[j], metric) <= eps:
                    g.add_edge(i, j)
        res = sgb_any(points, eps, metric, "index")
        ours = {frozenset(m) for m in res.groups().values()}
        theirs = {frozenset(c) for c in nx.connected_components(g)}
        assert ours == theirs


class TestOrderIndependence:
    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy, eps=eps_strategy,
           seed=st.integers(0, 100))
    def test_shuffle_invariant(self, points, eps, seed):
        base = sgb_any(points, eps, "l2", "index")
        perm = list(range(len(points)))
        random.Random(seed).shuffle(perm)
        shuffled = [points[i] for i in perm]
        other = sgb_any(shuffled, eps, "l2", "index")
        base_partition = {
            frozenset(tuple(points[i]) for i in m)
            for m in base.groups().values()
        }
        other_partition = {
            frozenset(tuple(shuffled[i]) for i in m)
            for m in other.groups().values()
        }
        assert base_partition == other_partition


class TestStrategyEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, eps=eps_strategy)
    def test_all_strategies_agree(self, points, eps):
        results = [
            sgb_any(points, eps, "l2", s).partition() for s in STRATEGIES
        ]
        assert all(r == results[0] for r in results[1:])


class TestDegenerate:
    @settings(max_examples=20, deadline=None)
    @given(points=points_strategy)
    def test_huge_eps_one_group(self, points):
        if not points:
            return
        assert sgb_any(points, 1e9, "linf", "index").n_groups == 1

    @settings(max_examples=20, deadline=None)
    @given(points=st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 100)),
        max_size=25, unique=True,
    ))
    def test_tiny_eps_singletons(self, points):
        res = sgb_any([(float(x), float(y)) for x, y in points], 1e-9,
                      "l2", "index")
        assert res.n_groups == len(points)


@st.composite
def lattice_case(draw):
    """Points on a dyadic lattice, so every difference, square and sum is
    exact and an ε-tie is a tie for the oracle and the kernels alike.

    ``step = eps / 2`` crowds cells with duplicates and pairs exactly ε
    apart, ``step = eps`` puts every point on a cell boundary, ``step =
    4 * eps`` leaves ε below the minimum spacing; the offset moves the
    lattice to negative and to large coordinates (``1e6 + k * step``).
    """
    dim = draw(st.sampled_from([1, 2, 3, 5]))
    eps = draw(st.sampled_from([0.25, 0.5, 1.0]))
    step = eps * draw(st.sampled_from([0.5, 1.0, 4.0]))
    offset = draw(st.sampled_from([0.0, -64.0, 1e6]))
    cells = draw(st.lists(
        st.tuples(*[st.integers(-5, 5)] * dim), max_size=40))
    points = [tuple(offset + k * step for k in cell) for cell in cells]
    return points, eps


@pytest.mark.parametrize("backend", kernels.available_backends())
class TestGridJoin:
    """Batch ``grid`` is a whole-input ε-join; the BFS oracle is the
    specification."""

    @pytest.mark.parametrize("metric", ["l2", "linf", "l1"])
    @settings(max_examples=60, deadline=None)
    @given(case=lattice_case())
    def test_join_matches_bfs_oracle(self, backend, metric, case):
        points, eps = case
        with kernels.use_backend(backend):
            res = sgb_any(points, eps, metric, "grid")
        ours = {frozenset(m) for m in res.groups().values()}
        oracle = {frozenset(c)
                  for c in connected_components(points, eps, metric)}
        assert ours == oracle

    def test_coincident_points_come_in_bounded_blocks(self, backend):
        # n coincident points are n(n-1)/2 edges; the join hands them on
        # in blocks and never holds more than one.
        points = [(1.5, -2.5)] * 700
        with kernels.use_backend(backend):
            block = importlib.import_module(
                f"repro.kernels.{backend}_backend").JOIN_BLOCK
            sizes = [len(us) for us, _, _ in kernels.eps_self_join(
                points, 0.5, resolve_metric("l2"))]
        assert sum(sizes) == 700 * 699 // 2
        assert len(sizes) > 1 and max(sizes) < block + len(points)

    def test_coincident_points_do_not_materialize_edges(self, backend):
        if backend == "python":
            pytest.skip("2M traced python appends take a minute; the "
                        "block bound above covers this backend")
        points = [(1.5, -2.5)] * 2000
        with kernels.use_backend(backend):
            tracemalloc.start()
            try:
                res = sgb_any(points, 0.5, "l2", "grid")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert res.labels == [0] * 2000
        assert peak < 16 * 2**20

    @settings(max_examples=25, deadline=None)
    @given(case=lattice_case())
    def test_add_one_at_a_time_equals_add_many(self, backend, case):
        points, eps = case
        with kernels.use_backend(backend):
            one = SGBAnyOperator(eps, strategy="grid")
            for p in points:
                one.add(p)
            many = SGBAnyOperator(eps, strategy="grid").add_many(points)
            assert one.finalize() == many.finalize()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 1e308])
    def test_unindexable_coordinate_is_rejected(self, backend, bad):
        points = [(0.0, 0.0), (bad, 0.2), (0.1, 0.1)]
        with kernels.use_backend(backend):
            with pytest.raises(InvalidCoordinateError):
                sgb_any(points, 0.5, "l2", "grid")
            db = Database(sgb_any_strategy="grid")
            db.execute("CREATE TABLE pts (x float, y float)")
            db.insert("pts", points)
            with pytest.raises(InvalidCoordinateError):
                db.query("SELECT count(*) FROM pts GROUP BY x, y "
                         "DISTANCE-TO-ANY L2 WITHIN 0.5")
