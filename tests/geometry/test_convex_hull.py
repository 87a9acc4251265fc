"""Convex hull tests, including a scipy oracle for random point sets."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.convex_hull import (
    IncrementalHull,
    convex_hull,
    diameter,
    farthest_vertex,
    point_in_convex_polygon,
)

coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point2 = st.tuples(coord, coord)


def _distance_to_boundary(p, hull):
    """Distance from ``p`` to the nearest edge of a polygon (n >= 2)."""
    best = math.inf
    for a, b in zip(hull, hull[1:] + hull[:1]):
        ab = (b[0] - a[0], b[1] - a[1])
        ap = (p[0] - a[0], p[1] - a[1])
        den = ab[0] ** 2 + ab[1] ** 2  # 0 when a denormal edge underflows
        t = (ap[0] * ab[0] + ap[1] * ab[1]) / den if den else 0.0
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(ap[0] - t * ab[0], ap[1] - t * ab[1]))
    return best


class TestMonotoneChain:
    def test_triangle(self):
        hull = convex_hull([(0, 0), (4, 0), (2, 3)])
        assert set(hull) == {(0, 0), (4, 0), (2, 3)}

    def test_interior_points_dropped(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 1), (3, 2)]
        hull = convex_hull(pts)
        assert set(hull) == {(0, 0), (4, 0), (4, 4), (0, 4)}

    def test_collinear_returns_extremes(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert set(hull) == {(0, 0), (3, 3)}

    def test_duplicates_collapse(self):
        assert convex_hull([(1, 1), (1, 1), (1, 1)]) == [(1.0, 1.0)]

    def test_empty_and_singleton(self):
        assert convex_hull([]) == []
        assert convex_hull([(2, 3)]) == [(2.0, 3.0)]

    def test_two_points(self):
        assert convex_hull([(0, 0), (1, 2)]) == [(0.0, 0.0), (1.0, 2.0)]

    def test_ccw_orientation(self):
        hull = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
        # signed area positive => CCW
        area = sum(
            hull[i][0] * hull[(i + 1) % len(hull)][1]
            - hull[(i + 1) % len(hull)][0] * hull[i][1]
            for i in range(len(hull))
        )
        assert area > 0

    # Integer grid: Qhull's merged-facet tolerance and our exact arithmetic
    # agree there; denormal-coordinate inputs are covered by the exact tests.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=3, max_size=40, unique=True))
    def test_matches_scipy(self, pts):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        try:
            sp = scipy_spatial.ConvexHull(pts)
        except Exception:  # degenerate (collinear) input for Qhull
            return
        ours = {(round(x, 9), round(y, 9)) for x, y in convex_hull(pts)}
        theirs = {
            (round(pts[i][0], 9), round(pts[i][1], 9)) for i in sp.vertices
        }
        assert ours == theirs

    # The containment test errs only towards "outside" (see its
    # docstring), so an input point may be reported outside its own hull
    # — but only when rounding put it there, i.e. on the boundary.
    @given(st.lists(point2, min_size=1, max_size=30))
    def test_all_points_inside_hull(self, pts):
        hull = convex_hull(pts)
        for p in pts:
            assert (point_in_convex_polygon(p, hull)
                    or _distance_to_boundary(p, hull) <= 1e-9)


class TestPointInPolygon:
    def test_inside_square(self):
        square = [(0, 0), (4, 0), (4, 4), (0, 4)]
        assert point_in_convex_polygon((2, 2), square)
        assert point_in_convex_polygon((0, 0), square)  # vertex
        assert point_in_convex_polygon((2, 0), square)  # edge
        assert not point_in_convex_polygon((5, 2), square)
        assert not point_in_convex_polygon((-0.001, 2), square)

    def test_degenerate_segment(self):
        seg = [(0.0, 0.0), (2.0, 2.0)]
        assert point_in_convex_polygon((1, 1), seg)
        assert not point_in_convex_polygon((1, 1.5), seg)
        assert not point_in_convex_polygon((3, 3), seg)

    @pytest.mark.parametrize("width", [8.55e-239, 1e-13])
    def test_sliver_does_not_contain_the_plane(self, width):
        # Narrower than the old absolute 1e-12 slack: every cross product
        # against the long edges is > -1e-12, so (0, 2) — above the apex —
        # used to count as inside and IncrementalHull.add dropped it.
        sliver = [(0.0, 0.0), (width, 0.0), (0.0, 1.0)]
        assert point_in_convex_polygon((0.0, 0.5), sliver)
        assert not point_in_convex_polygon((0.0, 2.0), sliver)
        assert not point_in_convex_polygon((1.0, 0.0), sliver)
        inc = IncrementalHull(sliver)
        inc.add((0.0, 2.0))
        assert (0.0, 2.0) in inc.vertices

    def test_segment_slack_is_confined_to_its_box(self):
        # The same sliver one vertex short: the collinearity slack lets
        # every point of the y axis pass, the bounding box stops it.
        seg = [(0.0, 0.0), (1e-13, 0.0)]
        assert point_in_convex_polygon((5e-14, 0.0), seg)
        assert not point_in_convex_polygon((0.0, 2.0), seg)
        assert not point_in_convex_polygon((1.0, 0.0), seg)

    def test_degenerate_point(self):
        assert point_in_convex_polygon((1, 1), [(1.0, 1.0)])
        assert not point_in_convex_polygon((1, 2), [(1.0, 1.0)])


class TestFarthestVertex:
    def test_simple(self):
        hull = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]
        v, d = farthest_vertex((-1, 0), hull)
        assert v == (4.0, 4.0)
        assert d == pytest.approx(math.sqrt(25 + 16))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            farthest_vertex((0, 0), [])

    @given(st.lists(point2, min_size=1, max_size=25), point2)
    def test_is_maximal_over_full_set(self, pts, probe):
        """The farthest point of a set from any external probe is always on
        the hull — the property the §6.4 refinement relies on."""
        hull = convex_hull(pts)
        _, d_hull = farthest_vertex(probe, hull)
        d_all = max(math.dist(probe, p) for p in pts)
        assert d_hull == pytest.approx(d_all)


class TestDiameter:
    def test_known(self):
        assert diameter([(0, 0), (3, 4), (1, 1)]) == pytest.approx(5.0)

    def test_degenerate(self):
        assert diameter([(1, 1)]) == 0.0
        assert diameter([(1, 1), (1, 1)]) == 0.0


class TestIncrementalHull:
    def test_incremental_matches_batch(self):
        pts = [(0, 0), (4, 0), (2, 3), (1, 1), (5, 5), (-1, 2), (2, -2)]
        inc = IncrementalHull()
        for p in pts:
            inc.add(p)
        assert sorted(inc.vertices) == sorted(convex_hull(pts))

    def test_interior_add_is_noop(self):
        inc = IncrementalHull([(0, 0), (4, 0), (4, 4), (0, 4)])
        before = inc.vertices
        inc.add((2, 2))
        assert inc.vertices == before

    def test_rebuild_after_removal(self):
        inc = IncrementalHull([(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)])
        inc.rebuild([(0, 0), (1, 0), (0, 1)])
        assert set(inc.vertices) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}

    # Integer coordinates keep the cross products exact, so the tolerance
    # in point-in-polygon can never disagree with the exact monotone chain.
    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=1, max_size=30))
    def test_incremental_equals_batch_property(self, pts):
        inc = IncrementalHull()
        for p in pts:
            inc.add(p)
        assert sorted(inc.vertices) == sorted(convex_hull(pts))
