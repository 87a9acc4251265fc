"""Higher-dimensional SGB (the paper's "future work" — 3-D and beyond).

The rectangle machinery is dimension-generic; L∞ stays exact in any
dimension, and L2 falls back to member scans after the rectangle filter
(the convex-hull refinement is 2-D only).  These tests pin that behaviour.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import sgb_all, sgb_any
from repro.stats.chooser import ALL_STRATEGIES
from tests.conftest import connected_components, is_clique

coord = st.floats(0, 6, allow_nan=False)
point3 = st.tuples(coord, coord, coord)
point4 = st.tuples(coord, coord, coord, coord)


class TestThreeDimensional:
    def test_sgb_all_basic(self):
        pts = [(0, 0, 0), (1, 1, 1), (0.5, 0.5, 0.5), (9, 9, 9)]
        res = sgb_all(pts, eps=1.5, metric="linf", tiebreak="first")
        assert sorted(res.group_sizes()) == [1, 3]

    def test_sgb_all_l2_diagonal(self):
        # L-inf distance 1, L2 distance sqrt(3) ~ 1.73
        pts = [(0, 0, 0), (1, 1, 1)]
        assert sgb_all(pts, 1.0, "linf").n_groups == 1
        assert sgb_all(pts, 1.0, "l2").n_groups == 2
        assert sgb_all(pts, 1.8, "l2").n_groups == 1

    def test_sgb_any_basic(self):
        pts = [(0, 0, 0), (1, 0, 0), (2, 0, 0), (9, 9, 9)]
        res = sgb_any(pts, eps=1.2, metric="l2")
        assert sorted(res.group_sizes()) == [1, 3]

    @pytest.mark.parametrize("metric", ["l2", "linf"])
    @pytest.mark.parametrize("clause",
                             ["join-any", "eliminate", "form-new-group"])
    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(point3, max_size=25),
           eps=st.floats(0.3, 3, allow_nan=False))
    def test_all_clique_invariant_3d(self, metric, clause, points, eps):
        for strategy in ALL_STRATEGIES:
            res = sgb_all(points, eps, metric, clause, strategy,
                          tiebreak="first")
            for members in res.groups().values():
                assert is_clique(points, members, eps, metric)

    @pytest.mark.parametrize("metric", ["l2", "linf"])
    @settings(max_examples=25, deadline=None)
    @given(points=st.lists(point3, max_size=25),
           eps=st.floats(0.3, 3, allow_nan=False))
    def test_any_components_oracle_3d(self, metric, points, eps):
        for strategy in ("all-pairs", "index", "grid"):
            res = sgb_any(points, eps, metric, strategy)
            ours = {frozenset(m) for m in res.groups().values()}
            want = {frozenset(c)
                    for c in connected_components(points, eps, metric)}
            assert ours == want

    @settings(max_examples=20, deadline=None)
    @given(points=st.lists(point3, max_size=20),
           eps=st.floats(0.3, 3, allow_nan=False))
    def test_strategies_agree_3d(self, points, eps):
        reference = sgb_all(points, eps, "l2", "eliminate", "all-pairs",
                            tiebreak="first")
        for strategy in ("bounds-checking", "index"):
            assert sgb_all(points, eps, "l2", "eliminate", strategy,
                           tiebreak="first") == reference


class TestFourDimensional:
    @settings(max_examples=15, deadline=None)
    @given(points=st.lists(point4, max_size=18),
           eps=st.floats(0.5, 3, allow_nan=False))
    def test_clique_and_component_invariants_4d(self, points, eps):
        res = sgb_all(points, eps, "linf", "join-any", "index",
                      tiebreak="first")
        for members in res.groups().values():
            assert is_clique(points, members, eps, "linf")
        res = sgb_any(points, eps, "l2", "index")
        ours = {frozenset(m) for m in res.groups().values()}
        want = {frozenset(c)
                for c in connected_components(points, eps, "l2")}
        assert ours == want


class TestSQLThreeDimensional:
    def test_sgb_over_three_columns(self):
        from repro.engine.database import Database

        db = Database(tiebreak="first")
        db.execute("CREATE TABLE p3 (x float, y float, z float)")
        db.insert("p3", [(0, 0, 0), (1, 1, 1), (0.5, 0.5, 0.5),
                         (9, 9, 9), (9.5, 9, 9)])
        res = db.query(
            "SELECT count(*) FROM p3 GROUP BY x, y, z "
            "DISTANCE-TO-ALL LINF WITHIN 1.5 ON-OVERLAP ELIMINATE"
        )
        assert sorted(r[0] for r in res) == [2, 3]
        # (0,0,0)-(0.5,.5,.5)-(1,1,1) chain under L2 (each hop ~0.87)
        res = db.query(
            "SELECT count(*) FROM p3 GROUP BY x, y, z "
            "DISTANCE-TO-ANY L2 WITHIN 1"
        )
        assert sorted(r[0] for r in res) == [2, 3]
        # a tighter eps breaks the chain but keeps the 0.5-apart pair
        res = db.query(
            "SELECT count(*) FROM p3 GROUP BY x, y, z "
            "DISTANCE-TO-ANY L2 WITHIN 0.6"
        )
        assert sorted(r[0] for r in res) == [1, 1, 1, 2]
