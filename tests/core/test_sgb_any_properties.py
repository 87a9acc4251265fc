"""Property-based tests for SGB-Any.

The defining property (Section 4.2): output groups are exactly the
connected components of the ε-neighbourhood graph.  We check against a
brute-force BFS oracle and networkx, and verify input-order independence —
a property SGB-All deliberately does *not* have, but SGB-Any must.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import sgb_any
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
