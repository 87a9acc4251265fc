"""Property-based tests for SGB-All.

Key invariants:

* every output group is a clique under the similarity predicate, for every
  strategy × overlap clause × metric combination;
* the three strategies produce identical groupings for the same input order
  (deterministic tiebreak) — All-Pairs is the executable spec (Procedure 2),
  Bounds-Checking and Index must agree with it;
* ELIMINATE partitions the input into groups + eliminated, FORM-NEW-GROUP
  and JOIN-ANY place every point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import sgb_all
from repro.stats.chooser import ALL_STRATEGIES
from tests.conftest import is_clique

coord = st.floats(0, 10, allow_nan=False, allow_infinity=False)
points_strategy = st.lists(st.tuples(coord, coord), min_size=0, max_size=35)
eps_strategy = st.floats(0.2, 4, allow_nan=False)

CLAUSES = ["join-any", "eliminate", "form-new-group"]
METRICS = ["l2", "linf"]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("clause", CLAUSES)
class TestCliqueInvariant:
    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, eps=eps_strategy)
    def test_every_group_is_a_clique(self, clause, metric, points, eps):
        for strategy in ALL_STRATEGIES:
            res = sgb_all(points, eps, metric, clause, strategy,
                          tiebreak="first")
            for members in res.groups().values():
                assert is_clique(points, members, eps, metric), (
                    strategy, members
                )

    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, eps=eps_strategy)
    def test_labels_cover_input(self, clause, metric, points, eps):
        res = sgb_all(points, eps, metric, clause, "index", tiebreak="first")
        assert len(res.labels) == len(points)
        placed = sum(len(m) for m in res.groups().values())
        assert placed + res.n_eliminated == len(points)
        if clause != "eliminate":
            assert res.n_eliminated == 0


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("clause", CLAUSES)
class TestStrategyEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(points=points_strategy, eps=eps_strategy)
    def test_strategies_agree(self, clause, metric, points, eps):
        """Bounds-Checking and Index must reproduce the All-Pairs spec."""
        reference = sgb_all(points, eps, metric, clause, "all-pairs",
                            tiebreak="first")
        for strategy in ("bounds-checking", "index"):
            other = sgb_all(points, eps, metric, clause, strategy,
                            tiebreak="first")
            assert other == reference, strategy


class TestDegenerateEps:
    @settings(max_examples=30, deadline=None)
    @given(points=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=25
    ))
    def test_eps_zero_equals_equality_group_by(self, points):
        """ε = 0 degenerates to the standard GROUP BY partition."""
        pts = [(float(x), float(y)) for x, y in points]
        res = sgb_all(pts, 0.0, "l2", "join-any", "index", tiebreak="first")
        expected = {}
        for i, p in enumerate(pts):
            expected.setdefault(p, set()).add(i)
        got = {frozenset(m) for m in res.groups().values()}
        assert got == {frozenset(v) for v in expected.values()}

    @settings(max_examples=20, deadline=None)
    @given(points=points_strategy)
    def test_huge_eps_single_group(self, points):
        if not points:
            return
        res = sgb_all(points, 1e9, "linf", "join-any", "index")
        assert res.n_groups == 1


class TestJoinAnyRandomValidity:
    @settings(max_examples=30, deadline=None)
    @given(points=points_strategy, eps=eps_strategy,
           seed=st.integers(0, 1000))
    def test_random_tiebreak_still_cliques(self, points, eps, seed):
        res = sgb_all(points, eps, "linf", "join-any", "index",
                      tiebreak="random", seed=seed)
        for members in res.groups().values():
            assert is_clique(points, members, eps, "linf")


class TestHullAblationEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(points=points_strategy, eps=eps_strategy)
    def test_hull_on_off_identical(self, points, eps):
        """The §6.4 refinement is an optimization, never a semantic change."""
        for clause in CLAUSES:
            on = sgb_all(points, eps, "l2", clause, "index",
                         tiebreak="first", use_hull=True)
            off = sgb_all(points, eps, "l2", clause, "index",
                          tiebreak="first", use_hull=False)
            assert on == off
