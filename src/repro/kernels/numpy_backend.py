"""Numpy kernel backend: array-at-a-time similarity primitives.

The strategies' hot loops evaluate the similarity predicate against a
*block* of points (every processed point, a grid neighbourhood, the R-tree
window hits, a group's members).  This backend turns each block into one
vectorized expression over a contiguous ``float64`` buffer instead of a
per-pair ``Metric.within`` call.

Counting contract: the SGB operators observe predicate work through a
:class:`~repro.core.stats.CountingMetric` (``metric.calls``).  Vectorized
kernels cannot route every pair through ``within``, so they *charge* the
wrapped metric with the number of pairs evaluated.  For the SGB-Any paths
this equals the pure-Python call count exactly (those loops never
early-exit between pairs); for SGB-All member scans the python backend may
count fewer thanks to first-miss early exits — see docs/architecture.md.

Incremental stores grow by capacity doubling so per-append cost stays
amortized O(d) with no list→array conversion on the query path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels._protocols import Coords, MetricLike, Point

name = "numpy"

#: Below this many points a vectorized member scan loses to the plain
#: loop (array slicing + ufunc launch overhead); group-level helpers fall
#: back to the python loop under it.
SMALL_BLOCK = 24

#: The ε-box grid probe has a cheaper python loop per candidate (inline
#: box test, metric only on box hits), so its vectorization threshold
#: sits higher.
_EPS_BOX_FALLBACK = 96


def _metric_kind(metric: MetricLike) -> Tuple[str, float]:
    """Collapse a metric (possibly a CountingMetric proxy) to a kernel
    dispatch key: ``("l2"|"linf"|"lp", p)``."""
    inner = getattr(metric, "inner", metric)
    mname = inner.name
    if mname == "l2":
        return "l2", 2.0
    if mname == "linf":
        return "linf", 0.0
    p = getattr(inner, "p", None)
    if p is not None:
        return "lp", float(p)
    # Unknown metric object: no vectorized form; caller must loop.
    return "other", 0.0


def _charge(metric: MetricLike, n: int) -> None:
    """Record ``n`` predicate evaluations on a counting metric proxy."""
    if hasattr(metric, "calls"):
        metric.calls += n  # type: ignore[attr-defined]


def _within_mask(coords: "np.ndarray", q: Coords, eps: float,
                 metric: MetricLike) -> Optional["np.ndarray"]:
    """Boolean mask of rows of ``coords`` within ``eps`` of ``q``, or
    None when the metric has no vectorized form."""
    kind, p = _metric_kind(metric)
    diff = coords - np.asarray(q, dtype=np.float64)
    if kind == "l2":
        return np.einsum("ij,ij->i", diff, diff) <= eps * eps
    if kind == "linf":
        return np.abs(diff).max(axis=1) <= eps
    if kind == "lp":
        return (np.abs(diff) ** p).sum(axis=1) <= eps**p
    return None


# ----------------------------------------------------------------------
# stateless batch primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    mask = _within_mask(coords, q, eps, metric)
    if mask is None:
        within = metric.within
        return [within(p, q, eps) for p in points]
    _charge(metric, len(coords))
    return mask.tolist()


def neighbors_in_eps(points: Sequence[Coords], q: Coords, eps: float,
                     metric: MetricLike) -> List[int]:
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    mask = _within_mask(coords, q, eps, metric)
    if mask is None:
        within = metric.within
        return [i for i, p in enumerate(points) if within(p, q, eps)]
    _charge(metric, len(coords))
    return np.flatnonzero(mask).tolist()


def points_in_rect(points: Sequence[Coords], lo: Coords,
                   hi: Coords) -> List[bool]:
    coords = np.asarray(points, dtype=np.float64)
    if coords.size == 0:
        return []
    lo_a = np.asarray(lo, dtype=np.float64)
    hi_a = np.asarray(hi, dtype=np.float64)
    mask = ((coords >= lo_a) & (coords <= hi_a)).all(axis=1)
    return mask.tolist()


def batch_eps_neighbors(points: Sequence[Coords], probes: Sequence[Coords],
                        eps: float, metric: MetricLike) -> List[List[int]]:
    """Per-probe ascending indices of ``points`` within ``eps``.

    One broadcasted ``(m, n, d)`` distance expression per call, which
    beats m separate kernel launches while the block stays small enough
    for the full matrix.  Charges the counting metric ``m * n``
    pairs, matching the python backend's no-early-exit loops.
    """
    m = len(probes)
    n = len(points)
    if m == 0 or n == 0:
        return [[] for _ in range(m)]
    kind, p = _metric_kind(metric)
    if kind == "other" or m * n < SMALL_BLOCK:
        within = metric.within
        return [
            [i for i, pt in enumerate(points) if within(pt, q, eps)]
            for q in probes
        ]
    coords = np.asarray(points, dtype=np.float64)
    qs = np.asarray(probes, dtype=np.float64)
    diff = qs[:, None, :] - coords[None, :, :]
    if kind == "l2":
        mask = np.einsum("ijk,ijk->ij", diff, diff) <= eps * eps
    elif kind == "linf":
        mask = np.abs(diff).max(axis=2) <= eps
    else:  # lp
        mask = (np.abs(diff) ** p).sum(axis=2) <= eps**p
    _charge(metric, m * n)
    return [np.flatnonzero(mask[j]).tolist() for j in range(m)]


def all_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    if len(points) < SMALL_BLOCK:
        within = metric.within
        return all(within(p, q, eps) for p in points)
    mask = _within_mask(np.asarray(points, dtype=np.float64), q, eps, metric)
    if mask is None:
        within = metric.within
        return all(within(p, q, eps) for p in points)
    _charge(metric, len(points))
    return bool(mask.all())


def any_within(points: Sequence[Coords], q: Coords, eps: float,
               metric: MetricLike) -> bool:
    if len(points) < SMALL_BLOCK:
        within = metric.within
        return any(within(p, q, eps) for p in points)
    mask = _within_mask(np.asarray(points, dtype=np.float64), q, eps, metric)
    if mask is None:
        within = metric.within
        return any(within(p, q, eps) for p in points)
    _charge(metric, len(points))
    return bool(mask.any())


# ----------------------------------------------------------------------
# lazily-synced coordinate buffer (shared by PointStore / GroupBlock)
# ----------------------------------------------------------------------
class _LazyCoords:
    """Tuple list + contiguous ``float64`` mirror, synced on first use.

    Appends only touch the python list; the array mirror catches up in
    bulk (one ``np.asarray`` over the pending slice) the next time a
    vectorized query actually needs it.  Workloads whose blocks stay
    under the fallback thresholds therefore never pay any array
    maintenance at all.
    """

    __slots__ = ("tuples", "_buf", "_synced")

    def __init__(self) -> None:
        self.tuples: List[Point] = []
        self._buf: Optional[np.ndarray] = None
        self._synced = 0

    def __len__(self) -> int:
        return len(self.tuples)

    def append(self, point: Point) -> int:
        self.tuples.append(point)
        return len(self.tuples) - 1

    def rebuild(self, points: Sequence[Point]) -> None:
        self.tuples = list(points)
        self._buf = None
        self._synced = 0

    def view(self) -> "np.ndarray":
        n = len(self.tuples)
        buf = self._buf
        if self._synced < n:
            if buf is None or buf.shape[0] < n:
                cap = max(16, 2 * n)
                grown = np.empty(
                    (cap, len(self.tuples[0])), dtype=np.float64
                )
                if buf is not None and self._synced:
                    grown[: self._synced] = buf[: self._synced]
                self._buf = buf = grown
            buf[self._synced : n] = np.asarray(
                self.tuples[self._synced : n], dtype=np.float64
            )
            self._synced = n
        assert buf is not None
        return buf[:n]


class PointStore:
    """Dense-id point collection over a doubling ``float64`` buffer.

    Points are stored twice: as rows of the contiguous array the
    vectorized queries run over, and as the original float tuples so that
    small batches — where ufunc launch overhead exceeds the loop cost —
    can take the exact pure-python path, ``CountingMetric`` semantics
    included.
    """

    backend = name

    def __init__(self) -> None:
        self._coords = _LazyCoords()

    def __len__(self) -> int:
        return len(self._coords)

    def append(self, point: Point) -> int:
        return self._coords.append(point)

    def get(self, i: int) -> Point:
        return self._coords.tuples[i]

    def query_all(self, q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        n = len(self._coords)
        if n == 0:
            return []
        if n >= SMALL_BLOCK:
            mask = _within_mask(self._coords.view(), q, eps, metric)
            if mask is not None:
                _charge(metric, n)
                return np.flatnonzero(mask).tolist()
        within = metric.within
        return [
            i
            for i, p in enumerate(self._coords.tuples)
            if within(p, q, eps)
        ]

    def query_ids(self, ids: Sequence[int], q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        if not ids:
            return []
        if len(ids) >= SMALL_BLOCK:
            ids_a = np.fromiter(ids, dtype=np.intp, count=len(ids))
            mask = _within_mask(
                self._coords.view()[ids_a], q, eps, metric
            )
            if mask is not None:
                _charge(metric, len(ids))
                return ids_a[mask].tolist()
        tuples = self._coords.tuples
        within = metric.within
        return [i for i in ids if within(tuples[i], q, eps)]

    def query_ids_eps_box(
        self, ids: Sequence[int], q: Coords, eps: float,
        metric: MetricLike, count: bool = True,
    ) -> Tuple[List[int], int]:
        """ε-box-filter ``ids`` around ``q`` then metric-verify.

        Every Minkowski ε-ball is contained in the ε-box, so the
        vectorized path needs only the metric mask; the box tally (the
        strategies' ``candidates`` counter, and the charge matching the
        python backend's per-window-hit ``within`` calls) is computed
        only when ``count`` is requested.
        """
        k = len(ids)
        if k == 0:
            return [], 0
        if k < _EPS_BOX_FALLBACK:
            return self._eps_box_loop(ids, q, eps, metric)
        kind, p = _metric_kind(metric)
        if kind == "other":
            return self._eps_box_loop(ids, q, eps, metric)
        ids_a = np.fromiter(ids, dtype=np.intp, count=k)
        diff = self._coords.view()[ids_a] - np.asarray(q, dtype=np.float64)
        if kind == "linf":
            wmask = (np.abs(diff) <= eps).all(axis=1)
            return ids_a[wmask].tolist(), int(wmask.sum()) if count else 0
        if kind == "l2":
            mask = np.einsum("ij,ij->i", diff, diff) <= eps * eps
        else:  # lp
            mask = (np.abs(diff) ** p).sum(axis=1) <= eps**p
        if count:
            n_window = int((np.abs(diff) <= eps).all(axis=1).sum())
            _charge(metric, n_window)
            return ids_a[mask].tolist(), n_window
        return ids_a[mask].tolist(), 0

    def _eps_box_loop(self, ids: Sequence[int], q: Coords, eps: float,
                      metric: MetricLike) -> Tuple[List[int], int]:
        """Pure-python fallback, byte-identical to the python backend."""
        tuples = self._coords.tuples
        dim2 = len(q) == 2
        if dim2:
            lo0, lo1 = q[0] - eps, q[1] - eps
            hi0, hi1 = q[0] + eps, q[1] + eps
        else:
            lo = [v - eps for v in q]
            hi = [v + eps for v in q]
        in_window: List[int] = []
        for i in ids:
            pt = tuples[i]
            if dim2:
                ok = lo0 <= pt[0] <= hi0 and lo1 <= pt[1] <= hi1
            else:
                ok = all(l <= v <= h for v, l, h in zip(pt, lo, hi))
            if ok:
                in_window.append(i)
        if metric.name == "linf":
            return in_window, len(in_window)
        within = metric.within
        return (
            [i for i in in_window if within(tuples[i], q, eps)],
            len(in_window),
        )


# ----------------------------------------------------------------------
# group-side stores
# ----------------------------------------------------------------------
class GroupBlock:
    """Per-group member coordinates kept as a contiguous array.

    ``Group`` mirrors every ``add``/``remove_members`` into this block so
    clique scans over large groups become single vectorized expressions.
    """

    backend = name
    __slots__ = ("_coords",)

    def __init__(self) -> None:
        self._coords = _LazyCoords()

    def __len__(self) -> int:
        return len(self._coords)

    def append(self, point: Sequence[float]) -> None:
        self._coords.append(tuple(point))

    def rebuild(self, points: Sequence[Sequence[float]]) -> None:
        self._coords.rebuild([tuple(p) for p in points])

    def within_mask(
        self, q: Coords, eps: float, metric: MetricLike,
    ) -> "Optional[np.ndarray]":
        """Boolean mask over members (empty for an empty block), or None
        if not vectorizable."""
        if len(self._coords) == 0:
            return np.zeros(0, dtype=bool)
        mask = _within_mask(self._coords.view(), q, eps, metric)
        if mask is None:
            return None
        _charge(metric, len(self._coords))
        return mask


class RectStore:
    """Slotted (ε-All rect, MBR) arrays for the bounds-checking strategy.

    One slot per live group; frees are recycled.  Dead slots are parked at
    ``+inf`` lo / ``-inf`` hi corners so every vectorized test rejects
    them without a separate liveness mask.
    """

    backend = name

    def __init__(self, dim: int) -> None:
        self.dim = dim
        cap = 16
        self._eps_lo = np.full((cap, dim), np.inf)
        self._eps_hi = np.full((cap, dim), -np.inf)
        self._mbr_lo = np.full((cap, dim), np.inf)
        self._mbr_hi = np.full((cap, dim), -np.inf)
        self._items: List[Any] = [None] * cap
        self._free: List[int] = list(range(cap - 1, -1, -1))
        self._slot_of: Dict[Any, int] = {}

    def __len__(self) -> int:
        return len(self._slot_of)

    def _grow(self) -> None:
        old = self._eps_lo.shape[0]
        new = old * 2
        for attr in ("_eps_lo", "_eps_hi", "_mbr_lo", "_mbr_hi"):
            arr = getattr(self, attr)
            fill = np.inf if attr.endswith("lo") else -np.inf
            grown = np.full((new, self.dim), fill)
            grown[:old] = arr
            setattr(self, attr, grown)
        self._items.extend([None] * (new - old))
        self._free.extend(range(new - 1, old - 1, -1))

    def set(self, item: Any, eps_rect: Any, mbr: Any) -> None:
        """Insert or update the rectangles for ``item`` (a group id)."""
        slot = self._slot_of.get(item)
        if slot is None:
            if not self._free:
                self._grow()
            slot = self._free.pop()
            self._slot_of[item] = slot
            self._items[slot] = item
        self._eps_lo[slot] = eps_rect.lo
        self._eps_hi[slot] = eps_rect.hi
        self._mbr_lo[slot] = mbr.lo
        self._mbr_hi[slot] = mbr.hi

    def delete(self, item: Any) -> None:
        slot = self._slot_of.pop(item)
        self._eps_lo[slot] = np.inf
        self._eps_hi[slot] = -np.inf
        self._mbr_lo[slot] = np.inf
        self._mbr_hi[slot] = -np.inf
        self._items[slot] = None
        self._free.append(slot)

    def eps_contains(self, point: Coords) -> List[Any]:
        """Items whose ε-All rectangle contains ``point`` (closed)."""
        q = np.asarray(point, dtype=np.float64)
        mask = ((self._eps_lo <= q) & (q <= self._eps_hi)).all(axis=1)
        items = self._items
        return [items[s] for s in np.flatnonzero(mask)]

    def mbr_intersects(self, lo: Coords, hi: Coords) -> List[Any]:
        """Items whose MBR intersects the closed box ``[lo, hi]``."""
        lo_a = np.asarray(lo, dtype=np.float64)
        hi_a = np.asarray(hi, dtype=np.float64)
        mask = (
            (self._mbr_lo <= hi_a) & (lo_a <= self._mbr_hi)
        ).all(axis=1)
        items = self._items
        return [items[s] for s in np.flatnonzero(mask)]


def make_point_store() -> PointStore:
    return PointStore()


def make_rect_store(dim: int) -> RectStore:
    return RectStore(dim)


def make_group_block() -> GroupBlock:
    return GroupBlock()
