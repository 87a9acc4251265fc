"""Numpy kernel backend: array-at-a-time similarity primitives.

The SGB-Any strategies and the ε-self-join evaluate the similarity
predicate against a *block* of points (every processed point, a grid
neighbourhood, the R-tree window hits, the whole input).  This backend
turns each block into one vectorized expression over contiguous
``float64`` buffers instead of a per-pair ``Metric.within`` call.  The
SGB-All group scans have no array form: ``Group`` runs the python loops
under both backends.

One check serves every kernel: :func:`_diff_mask` over per-axis columns
of coordinate differences, accumulated left to right as the reference
loops do.  Its L∞ form is the ε-box test.

Counting contract: every SGB operator counts predicate work through a
:class:`~repro.core.distance.CountingMetric` (``metric.calls``).  Each
kernel *charges* the proxy with the number of pairs the python backend's
loops evaluate (they have no early exits between pairs, and charge the
same numbers), so every counter agrees across the two backends.  The
ε-box tally behind the join's and the window verify's charges (and the
``candidates`` counter) is a running maximum of ``|d_k|`` over the same
difference columns the metric mask reads.

The point store grows by capacity doubling so per-append cost stays
amortized O(d) with no list→array conversion on the query path.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DimensionMismatchError, InvalidCoordinateError
from repro.kernels import python_backend as _python
from repro.kernels._protocols import (
    EPS_WIDEN,
    Coords,
    EdgeBlock,
    MetricLike,
)

name = "numpy"

#: Below this many points a vectorized scan loses to the plain loop
#: (array slicing + ufunc launch overhead); the point store and
#: ``batch_eps_neighbors`` fall back to the python loop under it.
SMALL_BLOCK = 24

#: The ε-box grid probe has a cheaper python loop per candidate (inline
#: box test, metric only on box hits), so its vectorization threshold
#: sits higher.
_EPS_BOX_FALLBACK = 96

#: Candidate pairs the ε-self-join expands and verifies at a time: its
#: working memory is O(n + JOIN_BLOCK) however dense the input.  On 5000
#: check-ins 4096 pays for its per-block calls and 65536 for its cache
#: misses (and 5 MB of peak RSS); between them the time is flat.
JOIN_BLOCK = 1 << 13

#: Cap on the cell-offset vectors the join enumerates (3^(d-1) half-space
#: offsets for d binned axes); axes beyond it are left to verification.
_JOIN_MAX_OFFSETS = 3**6


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


def _diff_mask(diffs: Sequence["np.ndarray"], eps: float, kind: str,
               p: float) -> "np.ndarray":
    """``δ <= eps`` over per-axis columns of coordinate differences
    (``diffs[k]`` holds ``d_k`` for every pair), in the arithmetic of the
    reference ``Metric.within`` loops: the per-axis terms are accumulated
    left to right, so the two backends round alike in every dimension
    and a pair at exactly ε lands on the same side.  The L∞ form, one
    running ``np.maximum`` of ``|d_k|``, is also the ε-box test
    (``|p_i - q_i| <= eps`` on every axis)."""
    if kind == "linf":
        top = np.abs(diffs[0])
        for d in diffs[1:]:
            np.maximum(top, np.abs(d), out=top)
        return top <= eps
    if kind == "l2":
        limit = eps * eps
        if limit == np.inf:
            return _scaled_mask(diffs, eps, 2.0)
        total = diffs[0] * diffs[0]
        for d in diffs[1:]:
            total += d * d
        return total <= limit
    try:
        limit = eps**p
    except OverflowError:
        return _scaled_mask(diffs, eps, p)
    total = np.abs(diffs[0]) ** p
    for d in diffs[1:]:
        total += np.abs(d) ** p
    return total <= limit


def _scaled_mask(diffs: Sequence["np.ndarray"], eps: float,
                 p: float) -> "np.ndarray":
    """The L2 / Lp mask for an ``eps`` whose power overflows, in
    ε-scaled units as ``Metric.within`` computes it there:
    ``Σ(|d_k|/eps)^p <= 1``.  A scaled term above 1 may overflow when
    powered; it fails the test either way."""
    with np.errstate(over="ignore"):
        total = np.zeros(diffs[0].shape)
        for d in diffs:
            s = np.abs(d) / eps
            total += s * s if p == 2.0 else s**p
    return total <= 1.0


def _box_count(diffs: Sequence["np.ndarray"], eps: float) -> int:
    """Pairs with ``|d_k| <= eps`` on every axis (the L∞ mask)."""
    return int(np.count_nonzero(_diff_mask(diffs, eps, "linf", 0.0)))


def _as_block(points: Sequence[Coords]) -> "np.ndarray":
    """``points`` as one C-contiguous ``float64`` (n, d) block, read from
    the flattened coordinates: one ``np.fromiter`` pass, where
    ``np.asarray`` probes every tuple as a nested sequence.  Points of
    unequal dimension raise."""
    n = len(points)
    dims = set(map(len, points))
    if len(dims) > 1:
        raise DimensionMismatchError(
            f"points have different dimensions: {sorted(dims)}"
        )
    dim = dims.pop() if n else 0
    return np.fromiter(itertools.chain.from_iterable(points),
                       dtype=np.float64, count=n * dim).reshape(n, dim)


def _diffs_to(coords: "np.ndarray", q: Coords) -> List["np.ndarray"]:
    """Per-axis difference columns of the rows of ``coords`` from ``q``."""
    if len(q) != coords.shape[1]:
        raise DimensionMismatchError(
            f"point dimension {len(q)} != {coords.shape[1]}"
        )
    return [coords[:, k] - float(v) for k, v in enumerate(q)]


# ----------------------------------------------------------------------
# stateless batch primitives
# ----------------------------------------------------------------------
def pairwise_within(points: Sequence[Coords], q: Coords, eps: float,
                    metric: MetricLike) -> List[bool]:
    kind, p = _metric_kind(metric)
    if kind == "other":
        return _python.pairwise_within(points, q, eps, metric)
    coords = _as_block(points)
    if coords.size == 0:
        return []
    mask = _diff_mask(_diffs_to(coords, q), eps, kind, p)
    _python.charge(metric, len(coords))
    return mask.tolist()


def batch_eps_neighbors(points: Sequence[Coords], probes: Sequence[Coords],
                        eps: float, metric: MetricLike) -> List[List[int]]:
    """Per-probe ascending indices of ``points`` within ``eps``.

    One broadcasted ``(m, n)`` difference column per axis per call, which
    beats m separate kernel launches while the block stays small enough
    for the full matrix.  Charges the counting metric ``m * n``
    pairs, matching the python backend's no-early-exit loops.
    """
    m = len(probes)
    n = len(points)
    kind, p = _metric_kind(metric)
    if kind == "other" or m * n < SMALL_BLOCK:
        return _python.batch_eps_neighbors(points, probes, eps, metric)
    coords = _as_block(points)
    qs = _as_block(probes)
    if qs.shape[1] != coords.shape[1]:
        raise DimensionMismatchError(
            f"point dimension {qs.shape[1]} != {coords.shape[1]}"
        )
    diffs = [qs[:, k, None] - coords[None, :, k] for k in range(qs.shape[1])]
    mask = _diff_mask(diffs, eps, kind, p)
    _python.charge(metric, m * n)
    return [np.flatnonzero(mask[j]).tolist() for j in range(m)]


# ----------------------------------------------------------------------
# whole-input ε-self-join and its component structure
# ----------------------------------------------------------------------
def eps_self_join(points: Sequence[Coords], eps: float,
                  metric: MetricLike) -> Iterator[EdgeBlock]:
    """Every unordered pair of ``points`` within ``eps``, as edge blocks.

    The points are binned by ``floor(v / eps)`` (the grid index's cell
    function), sorted by a row-major cell key, and each point is paired
    with the points after it in its own cell row and with those of every
    lexicographically greater row, inside the cell range of its ε-box
    corners: per half-space cell offset one ``searchsorted`` over the
    whole input, then ``repeat``/``cumsum`` pair expansion in blocks of
    at most :data:`JOIN_BLOCK` pairs.  After the sort each axis is one
    contiguous column, so a block's check is d gathered differences
    ``c_k[i] - c_k[j]``, the metric's left-to-right sum of their terms
    and, for the ε-box tally, a running maximum of their magnitudes.

    Yields ``(us, vs, n_box)``: edge endpoint ids (input positions) and
    the number of the block's pairs with ``|p_i - q_i| <= eps`` on every
    axis.  A counting metric is charged ``n_box`` for the non-L∞
    metrics — the python backend's ``within`` calls.
    """
    kind, p = _metric_kind(metric)
    if kind == "other":
        yield from _python.eps_self_join(points, eps, metric)
        return
    coords = _as_block(points)
    if coords.size == 0:
        return
    n, dim = coords.shape
    axes = np.ascontiguousarray(coords.T)  # one contiguous row per axis
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.floor(axes / eps)
        if not np.isfinite(cells).all():
            finite = np.isfinite(cells).all(axis=0)
            bad = tuple(coords[int(np.argmin(finite))].tolist())
            raise InvalidCoordinateError(
                f"point {bad!r} has a coordinate the grid cannot index "
                f"at cell side {eps}"
            )
        # Widened ε-box corners (EPS_WIDEN), located with the same
        # monotone cell function: a partner's cell is in the range.
        big = np.finfo(np.float64).max
        wide = eps * EPS_WIDEN
        lo = np.maximum(np.nextafter(axes - wide, -np.inf), -big)
        hi = np.minimum(np.nextafter(axes + wide, np.inf), big)
        base = cells.min(axis=1, keepdims=True)
        cells -= base
        lo_cells = np.floor(lo / eps) - base
        hi_cells = np.floor(hi / eps) - base
        reach = np.maximum((cells - lo_cells).max(axis=1),
                           (hi_cells - cells).max(axis=1))
        width = cells.max(axis=1) + 2.0 * reach + 1.0
    # Bin greedily by axis while the linear key fits an int64 and the
    # offset enumeration stays bounded; an axis left out is only verified.
    binned: List[int] = []
    n_offsets, key_size = 1.0, 1.0
    for axis in range(dim):
        grown = n_offsets * (2.0 * reach[binned[-1]] + 1.0) if binned else 1.0
        if not grown <= _JOIN_MAX_OFFSETS:
            break
        if width[axis] < 2.0**53 and key_size * width[axis] < 2.0**62:
            binned.append(axis)
            n_offsets, key_size = grown, key_size * width[axis]
    # Row-major key over the binned axes, each shifted by its reach so an
    # offset row never goes negative; the last binned axis (stride 1) is
    # searched as a range, the ones before it by enumerated offsets.
    key = np.zeros(n, dtype=np.int64)
    last = lo_last = hi_last = key  # no axis binned: one cell holds all
    strides: List[int] = []
    for axis in binned:
        last, lo_last, hi_last = (
            (c[axis] + reach[axis]).astype(np.int64)
            for c in (cells, lo_cells, hi_cells)
        )
        key = key * int(width[axis]) + last
        strides = [s * int(width[axis]) for s in strides] + [1]
    order = np.argsort(key, kind="stable")
    skey = key[order]
    columns = axes.take(order, axis=1)
    row = skey - last[order]
    lo_key = row + lo_last[order]
    hi_key = row + hi_last[order]
    after = np.arange(1, n + 1)
    spans = [range(-int(reach[a]), int(reach[a]) + 1) for a in binned[:-1]]
    for offset in itertools.product(*spans):
        if offset < (0,) * len(offset):
            continue  # the lexicographically smaller row pairs with us
        shift = sum(o * s for o, s in zip(offset, strides))
        start = np.searchsorted(skey, lo_key + shift, side="left")
        stop = np.searchsorted(skey, hi_key + shift, side="right")
        if not any(offset):  # own row: only the points sorted after us
            start = np.maximum(start, after)
        for i, j in _pair_blocks(start, stop):
            diffs = [c[i] - c[j] for c in columns]
            mask = _diff_mask(diffs, eps, kind, p)
            if kind == "linf":
                n_box = int(np.count_nonzero(mask))
            else:
                n_box = _box_count(diffs, eps)
                _python.charge(metric, n_box)
            yield order[i[mask]], order[j[mask]], n_box


def _pair_blocks(start: "np.ndarray", stop: "np.ndarray",
                 ) -> Iterator[Tuple["np.ndarray", "np.ndarray"]]:
    """Index arrays ``(i, j)`` enumerating ``j in [start[i], stop[i])``
    for every ``i``, at most :data:`JOIN_BLOCK` pairs at a time."""
    rows = np.flatnonzero(stop > start)
    if rows.size == 0:
        return
    first = start[rows]
    ends = np.cumsum(stop[rows] - first)
    begins = ends - (stop[rows] - first)
    total = int(ends[-1])
    for lo in range(0, total, JOIN_BLOCK):
        hi = min(lo + JOIN_BLOCK, total)
        k0 = int(np.searchsorted(ends, lo, side="right"))
        k1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        counts = (np.minimum(ends[k0:k1], hi)
                  - np.maximum(begins[k0:k1], lo))
        i = np.repeat(rows[k0:k1], counts)
        j = np.arange(lo, hi) + np.repeat(first[k0:k1] - begins[k0:k1],
                                          counts)
        yield i, j


def csr_adjacency(n: int, blocks: Iterable[EdgeBlock],
                  ) -> Tuple[List[int], List[int]]:
    """``(indptr, indices)`` of the graph the edge blocks list: both
    directions of every edge, stably sorted by source."""
    us: List["np.ndarray"] = []
    vs: List["np.ndarray"] = []
    for u, v, _ in blocks:
        us.append(np.asarray(u, dtype=np.intp))
        vs.append(np.asarray(v, dtype=np.intp))
    src = np.concatenate(us + vs) if us else np.zeros(0, dtype=np.intp)
    dst = np.concatenate(vs + us) if us else src
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr.tolist(), dst[np.argsort(src, kind="stable")].tolist()


class Components:
    """Connected components of ``n`` ids under edge blocks: a parent
    array hooked larger-root-to-smaller, so every root is the smallest
    (first inserted) id of its component."""

    backend = name

    def __init__(self, n: int) -> None:
        self._parent = np.arange(n, dtype=np.intp)

    def _roots(self, ids: "np.ndarray") -> "np.ndarray":
        parent = self._parent
        roots = parent[ids]
        while True:
            above = parent[roots]
            if np.array_equal(above, roots):
                break
            roots = above
        parent[ids] = roots
        return roots

    def add_edges(self, us: Sequence[int], vs: Sequence[int]) -> None:
        parent = self._parent
        u = self._roots(np.asarray(us, dtype=np.intp))
        v = self._roots(np.asarray(vs, dtype=np.intp))
        while True:
            cross = u != v
            if not cross.any():
                return
            u, v = u[cross], v[cross]
            hooked = np.maximum(u, v)
            parent[hooked] = np.minimum(u, v)
            # Only hooked roots changed parent, so every new chain runs
            # through them alone: pointer-double them flat.
            while True:
                above = parent[hooked]
                grand = parent[above]
                if np.array_equal(grand, above):
                    break
                parent[hooked] = grand
            u, v = parent[u], parent[v]

    def _flatten(self) -> "np.ndarray":
        parent = self._parent
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            self._parent = parent = grand

    @property
    def n_components(self) -> int:
        parent = self._parent
        return int(np.count_nonzero(parent == np.arange(len(parent))))

    def labels(self) -> List[int]:
        """Dense labels numbered by first appearance over id order."""
        parent = self._flatten()
        is_root = parent == np.arange(len(parent))
        return (np.cumsum(is_root) - 1)[parent].tolist()


# ----------------------------------------------------------------------
# the point store
# ----------------------------------------------------------------------
class PointStore(_python.PointStore):
    """The python store's point tuples plus a doubling ``float64``
    mirror, synced on first use.

    Appends only touch the tuple list; the mirror catches up in bulk (one
    ``np.asarray`` over the pending slice) the next time a vectorized
    query needs it.  Small batches — where ufunc launch overhead exceeds
    the loop cost — and metrics with no vectorized form take the python
    store's loops, ``CountingMetric`` semantics included, and never pay
    for the mirror.
    """

    backend = name

    def __init__(self) -> None:
        super().__init__()
        self._buf: Optional[np.ndarray] = None
        self._synced = 0

    def _view(self) -> "np.ndarray":
        n = len(self._points)
        buf = self._buf
        if self._synced < n:
            if buf is None or buf.shape[0] < n:
                cap = max(16, 2 * n)
                grown = np.empty(
                    (cap, len(self._points[0])), dtype=np.float64
                )
                if buf is not None and self._synced:
                    grown[: self._synced] = buf[: self._synced]
                self._buf = buf = grown
            buf[self._synced : n] = _as_block(self._points[self._synced : n])
            self._synced = n
        assert buf is not None
        return buf[:n]

    def query_all(self, q: Coords, eps: float,
                  metric: MetricLike) -> List[int]:
        n = len(self._points)
        kind, p = _metric_kind(metric)
        if n < SMALL_BLOCK or kind == "other":
            return super().query_all(q, eps, metric)
        mask = _diff_mask(_diffs_to(self._view(), q), eps, kind, p)
        _python.charge(metric, n)
        return np.flatnonzero(mask).tolist()

    def query_gathered(
        self, ids: Sequence[int], q: Coords, eps: float,
        metric: MetricLike,
    ) -> Tuple[List[int], int]:
        """Verify the ``ids`` a window gathered around ``q``.

        Every Minkowski ε-ball is contained in the ε-box, so the ids
        need only the metric mask; the box tally (the strategies'
        ``candidates`` counter, and the charge matching the python
        backend's per-window-hit ``within`` calls) is the L∞ mask of
        the same differences.
        """
        k = len(ids)
        if k < _EPS_BOX_FALLBACK:
            return super().query_gathered(ids, q, eps, metric)
        kind, p = _metric_kind(metric)
        if kind == "other":
            return super().query_gathered(ids, q, eps, metric)
        ids_a = np.fromiter(ids, dtype=np.intp, count=k)
        diffs = _diffs_to(self._view()[ids_a], q)
        mask = _diff_mask(diffs, eps, kind, p)
        if kind == "linf":
            return ids_a[mask].tolist(), int(np.count_nonzero(mask))
        n_window = _box_count(diffs, eps)
        _python.charge(metric, n_window)
        return ids_a[mask].tolist(), n_window


def make_point_store() -> PointStore:
    return PointStore()


def make_components(n: int) -> Components:
    return Components(n)

