"""The Group data structure shared by SGB-All's paper strategies.

A group owns its member point ids and coordinates and incrementally
maintains the structures the bounds-checking strategies rely on:

* ``mbr`` — minimum bounding rectangle of the members, the one rectangle a
  group stores: the OverlapRectangleTest and the R-tree entry geometry read
  it as it is, the ε-All test of Definition 5 reads it through the
  predicate's arithmetic (:meth:`~repro.geometry.rectangle.Rect.
  eps_all_contains`, within :func:`eps_all_reach`);
* ``hull`` — 2-D convex hull, maintained only when the metric is Euclidean
  (the §6.4 refinement); ``None`` otherwise.

``eps_rect``, Definition 5's rectangle itself, is a derived read-only view.
Member removal (ELIMINATE / FORM-NEW-GROUP semantics) rebuilds the affected
structures from the surviving members.

Every member test is a python loop over ``points`` (or the hull vertices),
whichever kernel backend is active, so a counting metric observes the same
``within`` calls under both.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import Metric
from repro.geometry.convex_hull import IncrementalHull
from repro.geometry.rectangle import EPS_WIDEN, Rect, eps_all_rect

Point = Tuple[float, ...]


def eps_all_reach(eps: float, metric: Metric) -> float:
    """How far from both MBR corners the ε-All test lets a point be.

    L∞: ``eps`` itself — the test *is* the predicate on the two extreme
    members per axis, hence the answer.  Any other metric: ``eps`` widened,
    a filter whose survivors :meth:`Group.refine` decides.
    """
    return eps if metric.name == "linf" else eps * EPS_WIDEN


class Group:
    """A candidate output group of SGB-All."""

    __slots__ = ("gid", "eps", "reach", "metric", "member_ids", "points",
                 "mbr", "hull")

    def __init__(self, gid: int, eps: float, metric: Metric, use_hull: bool):
        self.gid = gid
        self.eps = eps
        self.reach = eps_all_reach(eps, metric)
        self.metric = metric
        self.member_ids: List[int] = []
        self.points: List[Point] = []
        self.mbr: Optional[Rect] = None
        self.hull: Optional[IncrementalHull] = IncrementalHull() if use_hull else None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.member_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group(gid={self.gid}, size={len(self)})"

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @property
    def eps_rect(self) -> Optional[Rect]:
        """Definition 5's ε-All rectangle of the members (Figure 5); the
        membership test does not read it."""
        return eps_all_rect(self.points, self.eps)

    def add(self, point_id: int, point: Point) -> None:
        """Insert a member, updating MBR / hull in O(d + h)."""
        self.member_ids.append(point_id)
        self.points.append(point)
        if self.mbr is None:
            self.mbr = Rect.from_point(point)
        else:
            self.mbr = self.mbr.extend_point(point)
        if self.hull is not None:
            self.hull.add(point)

    def remove_members(self, point_ids: Iterable[int]) -> None:
        """Drop members by id and rebuild the derived structures."""
        doomed = set(point_ids)
        if not doomed:
            return
        kept = [
            (mid, pt)
            for mid, pt in zip(self.member_ids, self.points)
            if mid not in doomed
        ]
        self.member_ids = [mid for mid, _ in kept]
        self.points = [pt for _, pt in kept]
        self.mbr = Rect.from_points(self.points) if self.points else None
        if self.hull is not None:
            self.hull.rebuild(self.points)

    # ------------------------------------------------------------------
    # membership tests
    # ------------------------------------------------------------------
    def accepts(self, point: Point) -> bool:
        """Exact clique test: is ``point`` within ε of *every* member?

        L∞: the ε-All test on the MBR is the predicate on the extreme
        members of each axis, which answers for all of them in O(d).
        L2 (2-D): the same test as a filter, then the Convex Hull Test of
        §6.4.  L2 (other dims) / other metrics: filter, then member scan.
        """
        mbr = self.mbr
        if mbr is None or not mbr.eps_all_contains(point, self.reach):
            return False
        return self.metric.name == "linf" or self.refine(point)

    def refine(self, point: Point) -> bool:
        """Exact post-rectangle test for non-L∞ metrics (paper §6.4).

        Callers must have already established that ``point`` passes the
        ε-All test on the MBR; this resolves the remaining false positives
        via the convex-hull test (2-D) or a member scan.

        A point inside the hull is within ε of every member (the hull of a
        clique has the clique's diameter).  For an outside point, the
        farthest member under any norm is a hull vertex (distance to a
        fixed point is convex, so its maximum over the hull is at an
        extreme point) — checking the O(log k) hull vertices against the
        metric therefore decides membership exactly, for L2 and every
        other Minkowski metric.
        """
        if self.hull is not None and len(point) == 2:
            if self.hull.contains(point):
                return True
            within = self.metric.within
            eps = self.eps
            return all(
                within(point, v, eps) for v in self.hull.vertices
            )
        return self.all_within(point)

    def all_within(self, point: Point) -> bool:
        """Brute-force clique test (used by the All-Pairs strategy)."""
        within = self.metric.within
        eps = self.eps
        return all(within(point, q, eps) for q in self.points)

    def any_within(self, point: Point) -> bool:
        """True iff some member satisfies the similarity predicate."""
        within = self.metric.within
        eps = self.eps
        return any(within(point, q, eps) for q in self.points)

    def members_within(self, point: Point) -> List[int]:
        """Ids of members within ε of ``point`` (overlap processing)."""
        within = self.metric.within
        eps = self.eps
        return [
            mid
            for mid, q in zip(self.member_ids, self.points)
            if within(point, q, eps)
        ]

    def scan_flags(self, point: Point, need_overlap: bool) -> Tuple[bool, bool]:
        """One all-pairs member scan: ``(is_candidate, has_overlap)``.

        This is FindCloseGroups' inner loop for the naive strategy, with
        its early exits: JOIN-ANY bails on the first miss, the overlap
        clauses once both flags are settled.
        """
        candidate = True
        overlap = False
        within = self.metric.within
        eps = self.eps
        for q in self.points:
            if within(point, q, eps):
                overlap = True
            else:
                candidate = False
                if not need_overlap:
                    break  # JOIN-ANY can bail on the first miss
                if overlap:
                    break  # both flags settled
        return candidate, overlap


class GroupRegistry:
    """Id-ordered collection of live groups with stable id allocation.

    ``new_group(*args)`` builds ``make(gid, *args)``: a :class:`Group` by
    default, the graph strategy's id-only cliques otherwise.
    """

    __slots__ = ("_groups", "_next_gid", "_make")

    def __init__(self, make: Callable[..., Any] = Group) -> None:
        self._groups: Dict[int, Any] = {}
        self._next_gid = 0
        self._make = make

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self):
        return iter(self._groups.values())

    def get(self, gid: int) -> Group:
        return self._groups[gid]

    def new_group(self, *args: Any) -> Any:
        g = self._make(self._next_gid, *args)
        self._groups[g.gid] = g
        self._next_gid += 1
        return g

    def drop(self, gid: int) -> None:
        del self._groups[gid]

    def live_groups(self) -> List[Group]:
        return list(self._groups.values())
