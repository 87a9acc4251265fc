"""2-D convex hulls for the L2 refinement step (paper §6.4).

Under the Euclidean metric the ε-All rectangle is only a conservative
filter: points inside the rectangle but outside every member's ε-circle are
false positives.  The paper refines candidates with a *Convex Hull Test*:

* a point inside a group's convex hull is within ``ε`` of every member
  (the hull of a clique of diameter ``ε`` itself has diameter ``ε``), and
* a point outside the hull joins iff its distance to the farthest hull
  vertex is at most ``ε`` (the farthest member from an external point is
  always a hull vertex).

This module provides Andrew's monotone-chain hull, point-in-convex-polygon,
farthest-vertex search, set diameter, and an :class:`IncrementalHull` that
groups maintain as members come and go.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

Point2 = Tuple[float, float]


def cross(o: Sequence[float], a: Sequence[float], b: Sequence[float]) -> float:
    """Cross product of vectors OA and OB; >0 for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: Iterable[Sequence[float]]) -> List[Point2]:
    """Andrew's monotone chain; returns CCW hull without the repeated first point.

    Collinear points on the boundary are dropped.  Degenerate inputs are
    handled: 0/1/2 distinct points return those points; fully collinear sets
    return their two extremes.
    """
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return pts

    lower: List[Point2] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Point2] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if not hull:  # all points collinear -> keep the two extremes
        return [pts[0], pts[-1]]
    return hull


def point_in_convex_polygon(
    p: Sequence[float], hull: Sequence[Sequence[float]]
) -> bool:
    """True iff ``p`` lies inside or on the boundary of a CCW convex polygon.

    Works for degenerate "polygons" (a point or a segment) as well.

    The error is one-sided on purpose.  Callers treat "inside" as "within
    ε of every member, no distance check needed" and as "not an extreme
    point, drop it"; a false "outside" only costs a hull rebuild or the
    exact vertex scan, a false "inside" breaks the clique invariant.  So
    a polygon tests the computed orientation against 0 with no slack: an
    absolute slack makes every sliver hull narrower than it "contain"
    the whole plane along its long edges.  A segment keeps its 1e-12
    slack (a point between the endpoints rarely computes to exactly 0)
    because there the bounding box confines the error: whatever passes
    lies in the box of ``a``, ``b`` grown by 1e-12, hence within
    ``|ab| + 3e-12`` of everything else in it.
    """
    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return p[0] == hull[0][0] and p[1] == hull[0][1]
    if n == 2:
        a, b = hull
        if abs(cross(a, b, p)) > 1e-12 * (1 + abs(p[0]) + abs(p[1])):
            return False
        return (
            min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12
        )
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        if cross(a, b, p) < 0:
            return False
    return True


def farthest_vertex(
    p: Sequence[float], hull: Sequence[Sequence[float]]
) -> Tuple[Point2, float]:
    """Return ``(vertex, euclidean_distance)`` of the hull vertex farthest from ``p``.

    The paper notes an O(log h) search is possible; a linear scan over the
    hull (h = O(log k) expected vertices) is simpler and never slower in
    practice at these hull sizes.
    """
    if not hull:
        raise ValueError("farthest_vertex of an empty hull")
    best: Optional[Point2] = None
    best_d2 = -1.0
    px, py = float(p[0]), float(p[1])
    for v in hull:
        dx = v[0] - px
        dy = v[1] - py
        d2 = dx * dx + dy * dy
        if d2 > best_d2:
            best_d2 = d2
            best = (v[0], v[1])
    assert best is not None
    return best, math.sqrt(best_d2)


def diameter(points: Sequence[Sequence[float]]) -> float:
    """Euclidean diameter of a 2-D point set via its hull (brute on hull)."""
    hull = convex_hull(points)
    if len(hull) <= 1:
        return 0.0
    best = 0.0
    for i in range(len(hull)):
        for j in range(i + 1, len(hull)):
            dx = hull[i][0] - hull[j][0]
            dy = hull[i][1] - hull[j][1]
            d2 = dx * dx + dy * dy
            if d2 > best:
                best = d2
    return math.sqrt(best)


class IncrementalHull:
    """Convex hull of a mutable 2-D point set.

    Insertion of a point already inside the hull is O(h); otherwise the hull
    is rebuilt from ``hull ∪ {p}`` (valid because
    ``hull(S ∪ {p}) = hull(hull(S) ∪ {p})``).  Deletions rebuild from the
    full backing set, which groups keep anyway; deletions are rare (only the
    ELIMINATE / FORM-NEW-GROUP semantics trigger them).
    """

    __slots__ = ("_vertices",)

    def __init__(self, points: Optional[Iterable[Sequence[float]]] = None):
        self._vertices: List[Point2] = convex_hull(points) if points else []

    @property
    def vertices(self) -> List[Point2]:
        """CCW hull vertices (no repeated closing vertex)."""
        return list(self._vertices)

    def __len__(self) -> int:
        return len(self._vertices)

    def contains(self, p: Sequence[float]) -> bool:
        return point_in_convex_polygon(p, self._vertices)

    def add(self, p: Sequence[float]) -> None:
        pt = (float(p[0]), float(p[1]))
        if not self._vertices:
            self._vertices = [pt]
            return
        if self.contains(pt):
            return
        self._vertices = convex_hull(self._vertices + [pt])

    def rebuild(self, points: Iterable[Sequence[float]]) -> None:
        """Recompute from scratch (after member deletions)."""
        self._vertices = convex_hull(points)

    def farthest_from(self, p: Sequence[float]) -> Tuple[Point2, float]:
        return farthest_vertex(p, self._vertices)
