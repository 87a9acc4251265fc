"""Axis-aligned rectangles (d-dimensional boxes).

Two rectangle flavours appear in the paper:

* a plain minimum bounding rectangle (MBR) of a group's points, used by the
  ``OverlapRectangleTest`` and as the R-tree entry geometry, and
* the **ε-All bounding rectangle** (Definition 5): the region in which a new
  point is guaranteed (L∞) / allowed (L2, conservatively) to be within ``ε``
  of *all* current members of a group.

Both are represented by :class:`Rect`, an immutable-ish d-dimensional box
with ``lo``/``hi`` corner vectors.  A rectangle may be *empty* (``lo > hi``
in some dimension), which arises when a group's ε-All region vanishes.

Rectangles gather, the predicate decides: a group stores its MBR only, and
"is ``p`` inside the ε-All rectangle" is asked of the MBR in the predicate's
own arithmetic (:meth:`Rect.eps_all_contains`); every index probe takes its
window from :func:`probe_window`, and a window hit is never an answer.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

from repro.errors import DimensionMismatchError

Point = Tuple[float, ...]

#: Factor by which an ε-box is widened before it *gathers* candidates
#: (a probe window, a join's cell range, the ε-All filter of a metric
#: whose ball is smaller than its box).  The deciding test,
#: ``|p_i - q_i| <= eps`` and the metric, is evaluated in floating point
#: and absorbs a few ulps of ``eps`` (the difference, its square, the
#: sum); a corner computed as ``v - eps`` rounds on its own (``0.1 - 0.1``
#: is ``0.0``, which hides a neighbour at ``-5e-324``).  Widening by this
#: factor and stepping one float further out (``nextafter``) covers both,
#: so gathering never loses a pair the test would accept.
EPS_WIDEN = 1.0 + 2.0**-48

_nextafter = math.nextafter


class Rect:
    """A d-dimensional axis-aligned box ``[lo[i], hi[i]]`` per dimension."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        if len(lo) != len(hi):
            raise DimensionMismatchError(
                f"corner dimensions differ: {len(lo)} vs {len(hi)}"
            )
        self.lo: Point = tuple(float(v) for v in lo)
        self.hi: Point = tuple(float(v) for v in hi)

    @classmethod
    def _make(cls, lo: Point, hi: Point) -> "Rect":
        """Allocation-light constructor for hot paths; ``lo``/``hi`` must
        already be float tuples of equal length."""
        rect = cls.__new__(cls)
        rect.lo = lo
        rect.hi = hi
        return rect

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, p: Sequence[float]) -> "Rect":
        """Degenerate rectangle covering a single point."""
        return cls(p, p)

    @classmethod
    def from_points(cls, points: Iterable[Sequence[float]]) -> "Rect":
        """Minimum bounding rectangle of a non-empty point collection."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot bound an empty point collection") from None
        lo = list(first)
        hi = list(first)
        for p in it:
            for i, v in enumerate(p):
                if v < lo[i]:
                    lo[i] = v
                elif v > hi[i]:
                    hi[i] = v
        return cls(lo, hi)

    @classmethod
    def eps_box(cls, p: Sequence[float], eps: float) -> "Rect":
        """The ε-box around ``p``: side ``2ε`` centred at ``p``.

        For a singleton group this *is* its ε-All rectangle (paper Fig. 5c).
        Geometry only: an index is probed with :func:`probe_window`.
        """
        if len(p) == 2:
            x, y = float(p[0]), float(p[1])
            return cls._make((x - eps, y - eps), (x + eps, y + eps))
        return cls([v - eps for v in p], [v + eps for v in p])

    # ------------------------------------------------------------------
    # predicates
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_empty(self) -> bool:
        """True when the box has negative extent in some dimension."""
        return any(l > h for l, h in zip(self.lo, self.hi))

    def contains_point(self, p: Sequence[float]) -> bool:
        """``PointInRectangleTest`` from the paper (closed boundaries)."""
        lo, hi = self.lo, self.hi
        if len(lo) == 2:
            return lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1]
        return all(l <= v <= h for v, l, h in zip(p, lo, hi))

    def eps_all_contains(self, p: Sequence[float], reach: float) -> bool:
        """Is ``p`` within ``reach`` of both corners on every axis?

        Read on a group's MBR this is the ε-All rectangle test spelled as
        the L∞ predicate spells it, ``p - lo <= reach and hi - p <= reach``:
        both corners are coordinates of members and ``fl(p - q)`` is
        monotone in ``q``, so the largest ``|p - q|`` over the members is
        attained at one of them — bit-equal to scanning the members,
        which the stored-rectangle form ``hi - reach <= p <= lo + reach``
        is not.
        """
        lo, hi = self.lo, self.hi
        if len(lo) == 2:
            x, y = p
            return (x - lo[0] <= reach and hi[0] - x <= reach
                    and y - lo[1] <= reach and hi[1] - y <= reach)
        return all(
            v - l <= reach and h - v <= reach for v, l, h in zip(p, lo, hi)
        )

    def contains_rect(self, other: "Rect") -> bool:
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersects(self, other: "Rect") -> bool:
        """``OverlapRectangleTest``: closed-boundary intersection."""
        return all(
            sl <= oh and ol <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    # ------------------------------------------------------------------
    # combinators
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both (MBR growth on insert)."""
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if len(slo) == 2:  # common 2-D case, unrolled
            return Rect._make(
                (slo[0] if slo[0] < olo[0] else olo[0],
                 slo[1] if slo[1] < olo[1] else olo[1]),
                (shi[0] if shi[0] > ohi[0] else ohi[0],
                 shi[1] if shi[1] > ohi[1] else ohi[1]),
            )
        return Rect._make(
            tuple(min(a, b) for a, b in zip(slo, olo)),
            tuple(max(a, b) for a, b in zip(shi, ohi)),
        )

    def extend_point(self, p: Sequence[float]) -> "Rect":
        lo, hi = self.lo, self.hi
        if len(lo) == 2:
            x, y = float(p[0]), float(p[1])
            return Rect._make(
                (lo[0] if lo[0] < x else x, lo[1] if lo[1] < y else y),
                (hi[0] if hi[0] > x else x, hi[1] if hi[1] > y else y),
            )
        return Rect._make(
            tuple(min(a, float(b)) for a, b in zip(lo, p)),
            tuple(max(a, float(b)) for a, b in zip(hi, p)),
        )

    def intersection(self, other: "Rect") -> "Rect":
        """Intersection box; may be empty.

        The ε-All rectangle shrinks by intersecting with each new member's
        ε-box — rectangles are closed under intersection, which is what makes
        the L∞ invariant maintainable in O(d) per insert (paper §6.3).
        """
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if len(slo) == 2:
            return Rect._make(
                (slo[0] if slo[0] > olo[0] else olo[0],
                 slo[1] if slo[1] > olo[1] else olo[1]),
                (shi[0] if shi[0] < ohi[0] else ohi[0],
                 shi[1] if shi[1] < ohi[1] else ohi[1]),
            )
        return Rect._make(
            tuple(max(a, b) for a, b in zip(slo, olo)),
            tuple(min(a, b) for a, b in zip(shi, ohi)),
        )

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    def area(self) -> float:
        """Hyper-volume (0.0 for empty or degenerate boxes)."""
        result = 1.0
        for l, h in zip(self.lo, self.hi):
            extent = h - l
            if extent < 0:
                return 0.0
            result *= extent
        return result

    def margin(self) -> float:
        """Sum of side lengths (used by some split heuristics)."""
        return sum(max(0.0, h - l) for l, h in zip(self.lo, self.hi))

    def enlargement(self, other: "Rect") -> float:
        """Area increase if ``other`` were unioned in (R-tree ChooseLeaf)."""
        return self.union(other).area() - self.area()

    def center(self) -> Point:
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Rect) and self.lo == other.lo and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Rect(lo={self.lo}, hi={self.hi})"


def eps_all_rect(points: Iterable[Sequence[float]], eps: float) -> Optional[Rect]:
    """Build the ε-All rectangle of a point set (Definition 5).

    The ε-All rectangle is the intersection of every member's ε-box:
    per dimension ``[max_i x_i - eps, min_i x_i + eps]``.  Returns ``None``
    for an empty point set; the result may be an *empty* rect when the
    spread exceeds ``2ε`` in some dimension.
    """
    rect: Optional[Rect] = None
    for p in points:
        box = Rect.eps_box(p, eps)
        rect = box if rect is None else rect.intersection(box)
    return rect


def probe_window(point: Point, eps: float) -> Rect:
    """The window every index probe around ``point`` gathers with.

    The ε-box widened (:data:`EPS_WIDEN`, then one float further out) so
    that it holds every point the symmetric test ``|p_i - q_i| <= eps``
    accepts, from whichever side the pair is probed; :meth:`Rect.eps_box`
    does not.  The window only gathers: the caller's predicate decides
    each hit.
    """
    wide = eps * EPS_WIDEN
    down, up = -math.inf, math.inf
    if len(point) == 2:  # common case, unrolled for speed
        x, y = point
        return Rect._make(
            (_nextafter(x - wide, down), _nextafter(y - wide, down)),
            (_nextafter(x + wide, up), _nextafter(y + wide, up)),
        )
    return Rect._make(
        tuple(_nextafter(v - wide, down) for v in point),
        tuple(_nextafter(v + wide, up) for v in point),
    )
