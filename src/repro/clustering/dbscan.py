"""DBSCAN (Ester et al., KDD'96), accelerated by our R-tree.

The Figure 11 baseline: density-based clustering with ε-region queries.
Region queries run as window queries on an R-tree over the input points
(matching the "state-of-the-art implementation of DBSCAN with an R-tree"
the paper compares against); the window only gathers, the similarity
predicate decides every hit, for every metric.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.distance import Metric, resolve_metric
from repro.errors import InvalidParameterError
from repro.geometry.rectangle import Rect, probe_window
from repro.index.rtree import RTree

Point = Tuple[float, ...]

NOISE = -1
_UNVISITED = -2


class DBSCANResult:
    """Labels (``-1`` = noise), plus core-point flags."""

    __slots__ = ("labels", "core_flags", "n_clusters")

    def __init__(self, labels: List[int], core_flags: List[bool]):
        self.labels = labels
        self.core_flags = core_flags
        self.n_clusters = len({lb for lb in labels if lb >= 0})


def dbscan(
    points: Sequence[Sequence[float]],
    eps: float,
    min_pts: int = 5,
    metric: Union[str, Metric] = "l2",
    rtree_max_entries: int = 16,
) -> DBSCANResult:
    """Cluster ``points`` with DBSCAN.

    ``min_pts`` counts the point itself (the classic convention).  Border
    points join the first core point's cluster that reaches them; noise
    points get label ``-1``.
    """
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    if min_pts < 1:
        raise InvalidParameterError("min_pts must be >= 1")
    m = resolve_metric(metric)
    pts: List[Point] = [tuple(float(v) for v in p) for p in points]
    n = len(pts)
    # all points are known up front, so STR bulk loading packs the tree
    index = RTree.bulk_load(
        [(Rect.from_point(p), i) for i, p in enumerate(pts)],
        max_entries=rtree_max_entries,
    )

    def region_query(i: int) -> List[int]:
        p = pts[i]
        return [pid for pid in index.search(probe_window(p, eps))
                if m.within(p, pts[pid], eps)]

    labels = [_UNVISITED] * n
    core_flags = [False] * n
    cluster = 0
    for i in range(n):
        if labels[i] != _UNVISITED:
            continue
        neighbors = region_query(i)
        if len(neighbors) < min_pts:
            labels[i] = NOISE
            continue
        core_flags[i] = True
        labels[i] = cluster
        queue = deque(nb for nb in neighbors if nb != i)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # noise becomes a border point
            if labels[j] != _UNVISITED:
                continue
            labels[j] = cluster
            j_neighbors = region_query(j)
            if len(j_neighbors) >= min_pts:
                core_flags[j] = True
                queue.extend(
                    nb for nb in j_neighbors if labels[nb] in (_UNVISITED, NOISE)
                )
        cluster += 1
    return DBSCANResult(labels, core_flags)
