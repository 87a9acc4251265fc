"""Pure-Python kernel backend: the dependency-free reference loops.

Every primitive here is semantically the ground truth the numpy backend
must agree with — the hot-path strategies used exactly these loops inline
before the kernel layer existed, so keeping them verbatim preserves the
seed behaviour when numpy is absent or ``REPRO_BACKEND=python`` forces
this backend.

Counting: no loop here exits early between pairs, so the number of
``within`` calls a :class:`~repro.core.distance.CountingMetric` would
observe is known up front.  The loops call the wrapped metric's own
``within`` and charge the proxy's ``calls`` in bulk (:func:`charge`), as
the numpy backend does.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.dsu.union_find import UnionFind, component_labels
from repro.errors import InvalidCoordinateError
from repro.kernels._protocols import (
    EPS_WIDEN,
    Coords,
    EdgeBlock,
    MetricLike,
    Point,
)

name = "python"

#: Edges the ε-self-join buffers before handing a block on.
JOIN_BLOCK = 1 << 16


def charge(metric: MetricLike, n: int) -> None:
    """Record ``n`` predicate evaluations on a counting metric proxy."""
    if hasattr(metric, "calls"):
        metric.calls += n  # type: ignore[attr-defined]


def _within(metric: MetricLike) -> Callable[[Coords, Coords, float], bool]:
    """The predicate a counting proxy wraps (``metric``'s own otherwise):
    the loops charge the proxy in bulk instead of per call."""
    inner: MetricLike = getattr(metric, "inner", metric)
    return inner.within


# ----------------------------------------------------------------------
# stateless batch primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    """Per-point similarity predicate results against probe ``q``."""
    within = _within(metric)
    out = [within(p, q, eps) for p in points]
    charge(metric, len(out))
    return out


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
    within = _within(metric)
    out = [
        [i for i, p in enumerate(points) if within(p, q, eps)]
        for q in probes
    ]
    charge(metric, len(probes) * len(points))
    return out


# ----------------------------------------------------------------------
# whole-input ε-self-join and its component structure
# ----------------------------------------------------------------------
_Cell = Tuple[int, ...]


def _cell_of(point: Coords, eps: float) -> _Cell:
    """``GridIndex._cell_of``: the monotone cell function
    ``floor(v / eps)``."""
    try:
        return tuple(math.floor(v / eps) for v in point)
    except (OverflowError, ValueError):
        raise InvalidCoordinateError(
            f"point {tuple(point)!r} has a coordinate the grid cannot "
            f"index at cell side {eps}"
        ) from None


def _corner_cell(v: float, eps: float) -> int:
    """Cell of an ε-box corner; a corner (or its quotient by ``eps``)
    that overflowed is clamped to the edge of the float range, past
    every indexable point."""
    top = sys.float_info.max
    cell = max(-top, min(v, top)) / eps
    return math.floor(max(-top, min(cell, top)))


def eps_self_join(points: Sequence[Coords], eps: float,
                  metric: MetricLike) -> Iterator[EdgeBlock]:
    """Every unordered pair of ``points`` within ``eps``, as edge blocks.

    The loop form of the numpy backend's join over one cell table: each
    occupied cell, in lexicographic order, is paired with itself and with
    the greater occupied cells inside the cell range its members' ε-box
    corners span; a pair is an edge when ``|p_i - q_i| <= eps`` on every
    axis and (for the metrics whose ball is smaller than the box)
    ``metric.within`` holds.

    Yields ``(us, vs, n_box)``: edge endpoint ids and the number of pairs
    that passed the box test since the last block.
    """
    table: Dict[_Cell, List[int]] = {}
    for pid, point in enumerate(points):
        table.setdefault(_cell_of(point, eps), []).append(pid)
    occupied = sorted(table)
    wide = eps * EPS_WIDEN  # a partner's cell always lies in the range
    linf = metric.name == "linf"  # the per-axis test is the predicate
    within = _within(metric)
    us: List[int] = []
    vs: List[int] = []
    n_box = 0
    for rank, cell in enumerate(occupied):
        members = table[cell]
        lo = list(cell)
        hi = list(cell)
        for pid in members:
            for axis, v in enumerate(points[pid]):
                lo[axis] = min(lo[axis], _corner_cell(
                    math.nextafter(v - wide, -math.inf), eps))
                hi[axis] = max(hi[axis], _corner_cell(
                    math.nextafter(v + wide, math.inf), eps))
        volume = math.prod(h - l + 1 for l, h in zip(lo, hi))
        if volume <= len(occupied) - rank:
            partners: Iterable[_Cell] = (
                other for other in itertools.product(
                    *(range(l, h + 1) for l, h in zip(lo, hi)))
                if other >= cell and other in table
            )
        else:
            partners = (
                other for other in occupied[rank:]
                if all(l <= c <= h for c, l, h in zip(other, lo, hi))
            )
        for other in partners:
            others = table[other]
            for k, i in enumerate(members):
                p = points[i]
                for j in (members[k + 1:] if other == cell else others):
                    q = points[j]
                    if all(abs(a - b) <= eps for a, b in zip(p, q)):
                        n_box += 1
                        if linf or within(p, q, eps):
                            us.append(i)
                            vs.append(j)
                if len(us) >= JOIN_BLOCK:
                    if not linf:
                        charge(metric, n_box)
                    yield us, vs, n_box
                    us, vs, n_box = [], [], 0
    if us or n_box:
        if not linf:
            charge(metric, n_box)
        yield us, vs, n_box


def csr_adjacency(n: int, blocks: Iterable[EdgeBlock],
                  ) -> Tuple[List[int], List[int]]:
    """``(indptr, indices)`` of the graph the edge blocks list."""
    rows: List[List[int]] = [[] for _ in range(n)]
    for us, vs, _ in blocks:
        for u, v in zip(us, vs):
            rows[u].append(v)
            rows[v].append(u)
    indptr = [0]
    indices: List[int] = []
    for row in rows:
        indices.extend(row)
        indptr.append(len(indices))
    return indptr, indices


class Components:
    """Connected components of ``n`` ids under edge blocks (Union-Find)."""

    backend = name

    def __init__(self, n: int) -> None:
        self._n = n
        self._uf = UnionFind(range(n))

    def add_edges(self, us: Sequence[int], vs: Sequence[int]) -> None:
        union = self._uf.union
        for u, v in zip(us, vs):
            union(u, v)

    @property
    def n_components(self) -> int:
        return self._uf.n_components

    def labels(self) -> List[int]:
        """Dense labels numbered by first appearance over id order."""
        return component_labels(self._uf, self._n)


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
        within = _within(metric)
        hits = [i for i, p in enumerate(self._points) if within(p, q, eps)]
        charge(metric, len(self._points))
        return hits

    def query_gathered(
        self, ids: Sequence[int], q: Coords, eps: float,
        metric: MetricLike,
    ) -> Tuple[List[int], int]:
        """Verify the ``ids`` a window gathered around ``q``: keep those
        with ``|p_i - q_i| <= eps`` on every axis, then the metric.

        Returns ``(matching ids, number that passed the per-axis test)``.
        The per-axis test *is* the L∞ predicate, so no further metric
        evaluation — hence no ``CountingMetric`` charge — happens in that
        case, mirroring the pre-kernel grid strategy.
        """
        points = self._points
        # The symmetric form of the window test: ``q - eps <= v`` rounds
        # differently from ``v - eps <= q`` at an exact-eps tie.
        dim2 = len(q) == 2
        if dim2:
            q0, q1 = q
        in_window: List[int] = []
        for i in ids:
            p = points[i]
            if dim2:
                ok = abs(p[0] - q0) <= eps and abs(p[1] - q1) <= eps
            else:
                ok = all(abs(v - c) <= eps for v, c in zip(p, q))
            if ok:
                in_window.append(i)
        if metric.name == "linf":
            return in_window, len(in_window)
        within = _within(metric)
        hits = [i for i in in_window if within(points[i], q, eps)]
        charge(metric, len(in_window))
        return hits, len(in_window)


def make_point_store() -> PointStore:
    return PointStore()


def make_components(n: int) -> Components:
    return Components(n)
