"""BIRCH (Zhang, Ramakrishnan, Livny — SIGMOD'96).

Baseline for Figure 11.  Implements the CF-tree (clustering features
``(N, LS, SS)``, threshold test on subcluster radius, node splits by
farthest-pair seeding) and an optional global step that agglomerates the
leaf subclusters with k-means on their centroids.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.clustering.kmeans import kmeans
from repro.errors import InvalidParameterError

Point = Tuple[float, ...]


class CF:
    """A clustering feature: count, linear sum, squared sum."""

    __slots__ = ("n", "ls", "ss")

    def __init__(self, dim: int):
        self.n = 0
        self.ls = [0.0] * dim
        self.ss = 0.0

    def add_point(self, p: Point) -> None:
        self.n += 1
        for d, v in enumerate(p):
            self.ls[d] += v
        self.ss += sum(v * v for v in p)

    def merge(self, other: "CF") -> None:
        self.n += other.n
        for d in range(len(self.ls)):
            self.ls[d] += other.ls[d]
        self.ss += other.ss

    def centroid(self) -> Point:
        return tuple(v / self.n for v in self.ls)

    def radius_with(self, p: Optional[Point] = None) -> float:
        """RMS distance of members to the centroid, optionally as if ``p``
        had been absorbed (the CF threshold test)."""
        n = self.n + (1 if p is not None else 0)
        ls = list(self.ls)
        ss = self.ss
        if p is not None:
            for d, v in enumerate(p):
                ls[d] += v
            ss += sum(v * v for v in p)
        centroid_sq = sum((v / n) ** 2 for v in ls)
        value = ss / n - centroid_sq
        # CF radius from running sums.
        return math.sqrt(max(0.0, value))

    def copy(self) -> "CF":
        out = CF(len(self.ls))
        out.n = self.n
        out.ls = list(self.ls)
        out.ss = self.ss
        return out


def _sq_dist(p: Sequence[float], q: Sequence[float]) -> float:
    return sum((a - b) * (a - b) for a, b in zip(p, q))


class _CFNode:
    __slots__ = ("leaf", "cfs", "children")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.cfs: List[CF] = []
        self.children: List["_CFNode"] = []  # parallel to cfs when internal


class CFTree:
    """The height-balanced CF-tree of BIRCH phase 1."""

    def __init__(self, threshold: float, branching_factor: int, dim: int):
        if threshold <= 0:
            raise InvalidParameterError("threshold must be positive")
        if branching_factor < 2:
            raise InvalidParameterError("branching_factor must be >= 2")
        self.threshold = threshold
        self.branching = branching_factor
        self.dim = dim
        self.root = _CFNode(leaf=True)

    # ------------------------------------------------------------------
    def insert(self, p: Point) -> None:
        split = self._insert(self.root, p)
        if split is not None:
            left_cf, left_node, right_cf, right_node = split
            new_root = _CFNode(leaf=False)
            new_root.cfs = [left_cf, right_cf]
            new_root.children = [left_node, right_node]
            self.root = new_root

    def _insert(self, node: _CFNode, p: Point):
        """Insert, returning a split descriptor when the node overflowed."""
        if node.leaf:
            if node.cfs:
                best = min(
                    range(len(node.cfs)),
                    key=lambda i: _sq_dist(node.cfs[i].centroid(), p),
                )
                if node.cfs[best].radius_with(p) <= self.threshold:
                    node.cfs[best].add_point(p)
                    return None
            cf = CF(self.dim)
            cf.add_point(p)
            node.cfs.append(cf)
            if len(node.cfs) > self.branching:
                return self._split(node)
            return None
        # internal: descend into the closest child
        best = min(
            range(len(node.cfs)),
            key=lambda i: _sq_dist(node.cfs[i].centroid(), p),
        )
        child_split = self._insert(node.children[best], p)
        if child_split is None:
            node.cfs[best].add_point(p)
            return None
        left_cf, left_node, right_cf, right_node = child_split
        node.cfs[best] = left_cf
        node.children[best] = left_node
        node.cfs.append(right_cf)
        node.children.append(right_node)
        if len(node.cfs) > self.branching:
            return self._split(node)
        return None

    def _split(self, node: _CFNode):
        """Farthest-pair split; returns (cf_l, node_l, cf_r, node_r)."""
        centroids = [cf.centroid() for cf in node.cfs]
        n = len(centroids)
        seed_a, seed_b, worst = 0, 1, -1.0
        for i in range(n):
            for j in range(i + 1, n):
                d = _sq_dist(centroids[i], centroids[j])
                if d > worst:
                    worst = d
                    seed_a, seed_b = i, j
        left = _CFNode(leaf=node.leaf)
        right = _CFNode(leaf=node.leaf)
        for i in range(n):
            target = (
                left
                if _sq_dist(centroids[i], centroids[seed_a])
                <= _sq_dist(centroids[i], centroids[seed_b])
                else right
            )
            target.cfs.append(node.cfs[i])
            if not node.leaf:
                target.children.append(node.children[i])
        # guard against a degenerate all-one-side split
        if not left.cfs or not right.cfs:
            half = n // 2
            left = _CFNode(leaf=node.leaf)
            right = _CFNode(leaf=node.leaf)
            left.cfs, right.cfs = node.cfs[:half], node.cfs[half:]
            if not node.leaf:
                left.children = node.children[:half]
                right.children = node.children[half:]
        return (
            _summarize(left, self.dim), left,
            _summarize(right, self.dim), right,
        )

    # ------------------------------------------------------------------
    def leaf_cfs(self) -> List[CF]:
        out: List[CF] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(node.cfs)
            else:
                stack.extend(node.children)
        return out


def _summarize(node: _CFNode, dim: int) -> CF:
    total = CF(dim)
    for cf in node.cfs:
        total.merge(cf)
    return total


class BirchResult:
    __slots__ = ("labels", "centroids", "n_subclusters")

    def __init__(self, labels: List[int], centroids: List[Point],
                 n_subclusters: int):
        self.labels = labels
        self.centroids = centroids
        self.n_subclusters = n_subclusters


def birch(
    points: Sequence[Sequence[float]],
    threshold: float = 0.5,
    branching_factor: int = 50,
    n_clusters: Optional[int] = None,
    seed: int = 0,
) -> BirchResult:
    """Cluster ``points`` with BIRCH.

    Phase 1 builds the CF-tree; the leaf subcluster centroids are the
    clusters.  When ``n_clusters`` is given, a global k-means over the
    centroids merges subclusters down to that many groups (the standard
    BIRCH phase 3).  Points are labelled by their nearest final centroid.
    """
    pts: List[Point] = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise InvalidParameterError("birch requires at least one point")
    dim = len(pts[0])
    tree = CFTree(threshold, branching_factor, dim)
    for p in pts:
        tree.insert(p)
    sub_centroids = [cf.centroid() for cf in tree.leaf_cfs()]

    if n_clusters is not None and n_clusters < len(sub_centroids):
        km = kmeans(sub_centroids, n_clusters, seed=seed)
        centroid_label = km.labels
        final_centroids = km.centroids
    else:
        centroid_label = list(range(len(sub_centroids)))
        final_centroids = sub_centroids

    labels: List[int] = []
    for p in pts:
        best = min(
            range(len(sub_centroids)),
            key=lambda i: _sq_dist(sub_centroids[i], p),
        )
        labels.append(centroid_label[best])
    return BirchResult(labels, final_centroids, len(sub_centroids))
