"""K-means (Lloyd's algorithm with k-means++ seeding).

Baseline for the Figure 11 comparison: the paper runs K-means with
K ∈ {20, 40} against the SGB operators on check-in data.  Implemented from
scratch over plain Python/​lists so the comparison exercises the same kind
of per-point work the SGB operators do.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro.errors import InvalidParameterError

Point = Tuple[float, ...]


class KMeansResult:
    """Labels, centroids and convergence metadata of one K-means run."""

    __slots__ = ("labels", "centroids", "n_iter", "inertia")

    def __init__(self, labels: List[int], centroids: List[Point],
                 n_iter: int, inertia: float):
        self.labels = labels
        self.centroids = centroids
        self.n_iter = n_iter
        self.inertia = inertia


def _sq_dist(p: Sequence[float], q: Sequence[float]) -> float:
    return sum((a - b) * (a - b) for a, b in zip(p, q))


def _plus_plus_init(
    points: List[Point], k: int, rng: random.Random
) -> List[Point]:
    """k-means++ seeding: spread initial centroids by D² sampling."""
    centroids = [points[rng.randrange(len(points))]]
    d2 = [_sq_dist(p, centroids[0]) for p in points]
    while len(centroids) < k:
        total = sum(d2)
        if total <= 0.0:  # all remaining points coincide with a centroid
            centroids.append(points[rng.randrange(len(points))])
            continue
        r = rng.random() * total
        acc = 0.0
        idx = len(points) - 1
        for i, d in enumerate(d2):
            acc += d
            if acc >= r:
                idx = i
                break
        centroids.append(points[idx])
        for i, p in enumerate(points):
            nd = _sq_dist(p, centroids[-1])
            if nd < d2[i]:
                d2[i] = nd
    return centroids


def kmeans(
    points: Sequence[Sequence[float]],
    k: int,
    max_iter: int = 100,
    tol: float = 1e-6,
    seed: int = 0,
    init: str = "k-means++",
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups.

    Stops when centroids move less than ``tol`` (squared) or after
    ``max_iter`` rounds.  Empty clusters are re-seeded with the point
    farthest from its centroid.
    """
    pts: List[Point] = [tuple(float(v) for v in p) for p in points]
    if not pts:
        raise InvalidParameterError("kmeans requires at least one point")
    if not 1 <= k <= len(pts):
        raise InvalidParameterError(
            f"k must be in [1, n_points], got k={k}, n={len(pts)}"
        )
    dim = len(pts[0])
    rng = random.Random(seed)
    if init == "k-means++":
        centroids = _plus_plus_init(pts, k, rng)
    elif init == "random":
        centroids = [pts[i] for i in rng.sample(range(len(pts)), k)]
    else:
        raise InvalidParameterError(f"unknown init {init!r}")

    labels = [0] * len(pts)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):  # noqa: B007 -- read after loop
        # assignment step
        for i, p in enumerate(pts):
            best = 0
            best_d = _sq_dist(p, centroids[0])
            for c in range(1, k):
                d = _sq_dist(p, centroids[c])
                if d < best_d:
                    best_d = d
                    best = c
            labels[i] = best
        # update step
        sums = [[0.0] * dim for _ in range(k)]
        counts = [0] * k
        for p, lb in zip(pts, labels):
            counts[lb] += 1
            s = sums[lb]
            for d in range(dim):
                s[d] += p[d]
        new_centroids: List[Point] = []
        for c in range(k):
            if counts[c] == 0:
                # re-seed an empty cluster with the worst-fitting point
                far_i = max(
                    range(len(pts)),
                    key=lambda i: _sq_dist(pts[i], centroids[labels[i]]),
                )
                new_centroids.append(pts[far_i])
            else:
                new_centroids.append(
                    tuple(s / counts[c] for s in sums[c])
                )
        shift = max(_sq_dist(a, b) for a, b in zip(centroids, new_centroids))
        centroids = new_centroids
        if shift <= tol:
            break

    inertia = sum(_sq_dist(p, centroids[lb]) for p, lb in zip(pts, labels))
    return KMeansResult(labels, centroids, n_iter, inertia)
