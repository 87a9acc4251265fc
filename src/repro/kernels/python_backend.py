"""Pure-Python kernel backend: the dependency-free reference loops.

Every primitive here is semantically the ground truth the numpy backend
must agree with — the hot-path strategies used exactly these loops inline
before the kernel layer existed, so keeping them verbatim preserves the
seed behaviour (including which ``Metric.within`` calls a
:class:`~repro.core.stats.CountingMetric` observes) when numpy is absent
or ``REPRO_BACKEND=python`` forces this backend.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.kernels._protocols import Coords, MetricLike, Point

name = "python"


# ----------------------------------------------------------------------
# stateless batch primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    """Per-point similarity predicate results against probe ``q``."""
    within = metric.within
    return [within(p, q, eps) for p in points]


def neighbors_in_eps(points: Sequence[Coords], q: Coords, eps: float,
                     metric: MetricLike) -> List[int]:
    """Indices of ``points`` within ``eps`` of ``q`` (ascending)."""
    within = metric.within
    return [i for i, p in enumerate(points) if within(p, q, eps)]


def points_in_rect(points: Sequence[Coords], lo: Coords,
                   hi: Coords) -> List[bool]:
    """Bulk closed-boundary PointInRectangleTest."""
    if len(lo) == 2:
        l0, l1 = lo
        h0, h1 = hi
        return [l0 <= p[0] <= h0 and l1 <= p[1] <= h1 for p in points]
    return [
        all(l <= v <= h for v, l, h in zip(p, lo, hi)) for p in points
    ]


def batch_eps_neighbors(points: Sequence[Coords], probes: Sequence[Coords],
                        eps: float, metric: MetricLike) -> List[List[int]]:
    """Per-probe ascending indices of ``points`` within ``eps``.

    The many-probes-at-once primitive: one candidate block verified
    against a whole chunk of probe points.  Every (probe, point) pair is
    evaluated — no early exit — so a ``CountingMetric`` observes exactly
    ``len(probes) * len(points)`` calls, matching the numpy backend's
    bulk charge.
    """
    if not points or not probes:
        return [[] for _ in probes]
    within = metric.within
    return [
        [i for i, p in enumerate(points) if within(p, q, eps)]
        for q in probes
    ]


def all_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    within = metric.within
    return all(within(p, q, eps) for p in points)


def any_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    within = metric.within
    return any(within(p, q, eps) for p in points)


# ----------------------------------------------------------------------
# incremental stores
# ----------------------------------------------------------------------
class PointStore:
    """Append-only dense-id point collection with ε-query primitives.

    Ids are the append order (0, 1, 2, ...), matching how the SGB-Any
    strategies number processed points.
    """

    backend = name

    def __init__(self) -> None:
        self._points: List[Point] = []

    def __len__(self) -> int:
        return len(self._points)

    def append(self, point: Point) -> int:
        self._points.append(point)
        return len(self._points) - 1

    def get(self, i: int) -> Point:
        return self._points[i]

    def query_all(self, q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        """Ids of all stored points within ``eps`` of ``q``."""
        within = metric.within
        return [
            i for i, p in enumerate(self._points) if within(p, q, eps)
        ]

    def query_ids(self, ids: Iterable[int], q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        """Subset of ``ids`` whose point is within ``eps`` of ``q``
        (input order preserved)."""
        within = metric.within
        points = self._points
        return [i for i in ids if within(points[i], q, eps)]

    def query_ids_eps_box(
        self, ids: Iterable[int], q: Coords, eps: float,
        metric: MetricLike, count: bool = True,
    ) -> Tuple[List[int], int]:
        """ε-box-filter ``ids`` around ``q`` then verify with the metric.

        Returns ``(matching ids, number that passed the box test)``.
        The box test is exact for L∞ (the ε-box *is* the ball), so no
        metric evaluation — hence no ``CountingMetric`` charge — happens
        in that case, mirroring the pre-kernel grid strategy.  ``count``
        is a hint for backends whose counting costs extra; here the box
        tally is a free byproduct.
        """
        points = self._points
        dim2 = len(q) == 2
        if dim2:
            lo0, lo1 = q[0] - eps, q[1] - eps
            hi0, hi1 = q[0] + eps, q[1] + eps
        else:
            lo = [v - eps for v in q]
            hi = [v + eps for v in q]
        in_window: List[int] = []
        for i in ids:
            p = points[i]
            if dim2:
                ok = lo0 <= p[0] <= hi0 and lo1 <= p[1] <= hi1
            else:
                ok = all(l <= v <= h for v, l, h in zip(p, lo, hi))
            if ok:
                in_window.append(i)
        if metric.name == "linf":
            return in_window, len(in_window)
        within = metric.within
        return (
            [i for i in in_window if within(points[i], q, eps)],
            len(in_window),
        )


def make_point_store() -> PointStore:
    return PointStore()


def make_rect_store(dim: int) -> Optional["object"]:
    """The python backend has no bulk rectangle store; callers fall back
    to their per-group loops (the seed behaviour)."""
    return None


def make_group_block() -> Optional["object"]:
    """No per-group coordinate block either; ``Group`` keeps its loops."""
    return None
