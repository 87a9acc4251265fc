"""Tests for the one-dimensional SGB operators (ICDE 2009 semantics)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import ELIMINATED
from repro.core.sgb_1d import sgb_around, sgb_segment
from repro.errors import InvalidParameterError

values_strategy = st.lists(st.floats(-100, 100, allow_nan=False),
                           max_size=40)


class TestSegmentValidation:
    def test_negative_separation(self):
        with pytest.raises(InvalidParameterError):
            sgb_segment([1], max_separation=-1)

    def test_negative_diameter(self):
        with pytest.raises(InvalidParameterError):
            sgb_segment([1], max_separation=1, max_diameter=-1)


class TestSegment:
    def test_empty(self):
        res = sgb_segment([], 1)
        assert res.n_points == 0 and res.n_groups == 0

    def test_single(self):
        assert sgb_segment([5], 1).labels == [0]

    def test_gap_splits(self):
        res = sgb_segment([1, 2, 8, 9, 2.5], max_separation=1)
        assert res.group_sizes() == [3, 2]
        # labels are in input order
        assert res.labels[0] == res.labels[1] == res.labels[4]
        assert res.labels[2] == res.labels[3]

    def test_order_independent(self):
        a = sgb_segment([1, 2, 8, 9, 2.5], 1)
        b = sgb_segment([9, 2.5, 1, 8, 2], 1)
        assert sorted(a.group_sizes()) == sorted(b.group_sizes())

    def test_diameter_caps_group_width(self):
        # consecutive gaps all <= 1, but diameter 2 forces splits
        res = sgb_segment([0, 1, 2, 3, 4], max_separation=1, max_diameter=2)
        for members in res.groups().values():
            vals = [res.points[i][0] for i in members]
            assert max(vals) - min(vals) <= 2

    def test_zero_separation_groups_exact_duplicates(self):
        res = sgb_segment([1, 1, 2, 1], max_separation=0)
        assert sorted(res.group_sizes()) == [1, 3]

    def test_duplicates_within_group(self):
        res = sgb_segment([5, 5, 5], 0.1)
        assert res.group_sizes() == [3]

    @settings(max_examples=50, deadline=None)
    @given(values=values_strategy, sep=st.floats(0, 10, allow_nan=False))
    def test_invariants(self, values, sep):
        res = sgb_segment(values, sep)
        assert res.n_eliminated == 0
        groups = res.group_points()
        sorted_groups = sorted(
            (sorted(v[0] for v in pts) for pts in groups.values()),
        )
        for i, vals in enumerate(sorted_groups):
            # within a group: consecutive sorted gaps <= sep
            for a, b in zip(vals, vals[1:]):
                assert b - a <= sep + 1e-9
            # between adjacent groups: gap > sep
            if i + 1 < len(sorted_groups):
                assert sorted_groups[i + 1][0] - vals[-1] > sep - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(values=values_strategy, sep=st.floats(0.1, 5, allow_nan=False),
           diam=st.floats(0.1, 10, allow_nan=False))
    def test_diameter_invariant(self, values, sep, diam):
        res = sgb_segment(values, sep, max_diameter=diam)
        for pts in res.group_points().values():
            vals = [p[0] for p in pts]
            assert max(vals) - min(vals) <= diam + 1e-9


class TestAroundValidation:
    def test_no_centers(self):
        with pytest.raises(InvalidParameterError):
            sgb_around([1], centers=[])

    def test_negative_diameter(self):
        with pytest.raises(InvalidParameterError):
            sgb_around([1], centers=[0], max_diameter=-2)


class TestAround:
    def test_nearest_center_wins(self):
        res = sgb_around([1, 4, 6, 9], centers=[0, 10])
        assert res.labels == [0, 0, 1, 1]

    def test_tie_goes_to_earlier_center(self):
        res = sgb_around([5], centers=[0, 10])
        assert res.labels == [0]

    def test_diameter_excludes_far_points(self):
        res = sgb_around([1, 4, 6, 40], centers=[0, 5], max_diameter=4)
        assert res.labels == [0, 1, 1, ELIMINATED]

    def test_labels_are_center_indices(self):
        res = sgb_around([9.5, 0.5], centers=[0, 10])
        assert res.labels == [1, 0]

    def test_empty(self):
        res = sgb_around([], centers=[1])
        assert res.n_points == 0

    @settings(max_examples=50, deadline=None)
    @given(values=values_strategy,
           centers=st.lists(st.floats(-100, 100, allow_nan=False),
                            min_size=1, max_size=5),
           diam=st.one_of(st.none(), st.floats(0, 50, allow_nan=False)))
    def test_nearest_assignment_invariant(self, values, centers, diam):
        res = sgb_around(values, centers, max_diameter=diam)
        for v, lb in zip(values, res.labels):
            dists = [abs(v - c) for c in centers]
            nearest = min(dists)
            if lb == ELIMINATED:
                assert diam is not None and nearest > diam / 2 - 1e-9
            else:
                assert dists[lb] == pytest.approx(nearest)
                if diam is not None:
                    assert dists[lb] <= diam / 2 + 1e-9


class TestSQLIntegration:
    @pytest.fixture
    def db(self):
        from repro.engine.database import Database

        d = Database()
        d.execute("CREATE TABLE m (v float, tag text)")
        d.execute(
            "INSERT INTO m VALUES (1,'a'),(2,'b'),(2.5,'c'),(8,'d'),"
            "(9,'e'),(40,'f')"
        )
        return d

    def test_segment_sql(self, db):
        res = db.query(
            "SELECT count(*), min(v), max(v) FROM m "
            "GROUP BY v MAXIMUM-ELEMENT-SEPARATION 1"
        )
        assert sorted(res.rows) == [
            (1, 40.0, 40.0), (2, 8.0, 9.0), (3, 1.0, 2.5),
        ]

    def test_segment_with_diameter_sql(self, db):
        res = db.query(
            "SELECT count(*) FROM m GROUP BY v "
            "MAXIMUM-ELEMENT-SEPARATION 1 MAXIMUM-GROUP-DIAMETER 1"
        )
        assert sorted(r[0] for r in res) == [1, 1, 2, 2]

    def test_around_sql(self, db):
        res = db.query(
            "SELECT count(*), array_agg(tag) FROM m "
            "GROUP BY v AROUND (0, 10) MAXIMUM-GROUP-DIAMETER 8"
        )
        assert sorted((r[0], tuple(r[1])) for r in res) == [
            (2, ("d", "e")), (3, ("a", "b", "c")),
        ]

    def test_around_without_diameter_groups_everything(self, db):
        res = db.query(
            "SELECT count(*) FROM m GROUP BY v AROUND (0, 10)"
        )
        assert sum(r[0] for r in res) == 6

    def test_requires_single_attribute(self, db):
        from repro.errors import PlanningError

        db.execute("CREATE TABLE two (x float, y float)")
        with pytest.raises(PlanningError, match="exactly one"):
            db.query(
                "SELECT count(*) FROM two GROUP BY x, y "
                "MAXIMUM-ELEMENT-SEPARATION 1"
            )

    def test_explain_shows_1d_node(self, db):
        plan = db.explain(
            "SELECT count(*) FROM m GROUP BY v "
            "MAXIMUM-ELEMENT-SEPARATION 1"
        )
        assert "SimilarityGroupBy1D" in plan
