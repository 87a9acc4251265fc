"""DBSCAN tests with a brute-force reference implementation as oracle."""

import random
from collections import deque

import pytest

from repro import kernels
from repro.clustering.dbscan import NOISE, dbscan
from repro.core.api import sgb_any
from repro.errors import InvalidParameterError
from tests.conftest import decimal_lattice, dist, partition_of


def reference_dbscan(points, eps, min_pts, metric="l2"):
    """Straightforward textbook DBSCAN for cross-checking core/noise
    structure (border-point assignment is order-dependent, so we compare
    cores and noise only)."""
    n = len(points)
    neighbors = [
        [j for j in range(n) if dist(points[i], points[j], metric) <= eps]
        for i in range(n)
    ]
    core = [len(nb) >= min_pts for nb in neighbors]
    # cluster = connected components of core points (within eps), plus
    # border points attached to some core
    labels = [None] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] is not None:
            continue
        labels[i] = cluster
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if core[v] and labels[v] is None:
                    labels[v] = cluster
                    queue.append(v)
        cluster += 1
    noise = [
        i for i in range(n)
        if not core[i] and not any(core[j] for j in neighbors[i])
    ]
    return core, set(noise), cluster


class TestValidation:
    def test_bad_eps(self):
        with pytest.raises(InvalidParameterError):
            dbscan([(0, 0)], eps=0)

    def test_bad_min_pts(self):
        with pytest.raises(InvalidParameterError):
            dbscan([(0, 0)], eps=1, min_pts=0)


class TestKnownConfigurations:
    def test_single_dense_blob(self):
        rng = random.Random(0)
        pts = [(rng.gauss(0, 0.2), rng.gauss(0, 0.2)) for _ in range(30)]
        res = dbscan(pts, eps=1.0, min_pts=3)
        assert res.n_clusters == 1
        assert all(lb == 0 for lb in res.labels)

    def test_two_blobs_and_noise(self):
        rng = random.Random(1)
        blob1 = [(rng.gauss(0, 0.2), rng.gauss(0, 0.2)) for _ in range(20)]
        blob2 = [(rng.gauss(10, 0.2), rng.gauss(10, 0.2)) for _ in range(20)]
        outlier = [(5.0, 5.0)]
        res = dbscan(blob1 + blob2 + outlier, eps=1.0, min_pts=3)
        assert res.n_clusters == 2
        assert res.labels[-1] == NOISE

    def test_all_noise_when_sparse(self):
        pts = [(i * 10.0, 0.0) for i in range(10)]
        res = dbscan(pts, eps=1.0, min_pts=2)
        assert res.n_clusters == 0
        assert all(lb == NOISE for lb in res.labels)

    def test_min_pts_counts_self(self):
        # two points within eps: each has 2 neighbours (incl. self)
        res = dbscan([(0, 0), (0.5, 0)], eps=1, min_pts=2)
        assert res.n_clusters == 1
        res = dbscan([(0, 0), (0.5, 0)], eps=1, min_pts=3)
        assert res.n_clusters == 0

    def test_linf_metric(self):
        pts = [(0, 0), (1, 1), (2, 2)]
        res = dbscan(pts, eps=1.0, min_pts=2, metric="linf")
        assert res.n_clusters == 1
        res2 = dbscan(pts, eps=1.0, min_pts=2, metric="l2")
        assert res2.n_clusters == 0  # diagonal distance sqrt(2)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_cores_clusters_and_noise_match(self, seed, metric):
        rng = random.Random(seed)
        pts = [(rng.uniform(0, 6), rng.uniform(0, 6)) for _ in range(90)]
        eps, min_pts = 0.8, 4
        res = dbscan(pts, eps, min_pts, metric)
        ref_core, ref_noise, ref_clusters = reference_dbscan(
            pts, eps, min_pts, metric
        )
        assert res.core_flags == ref_core
        assert {i for i, lb in enumerate(res.labels)
                if lb == NOISE} == ref_noise
        assert res.n_clusters == ref_clusters
        # the partition of CORE points must match the reference exactly
        # (border points may legitimately differ by processing order)
        ours = {}
        theirs = {}
        ref_labels = _core_partition(pts, ref_core, eps, metric)
        for i in range(len(pts)):
            if ref_core[i]:
                ours.setdefault(res.labels[i], set()).add(i)
                theirs.setdefault(ref_labels[i], set()).add(i)
        assert {frozenset(v) for v in ours.values()} == {
            frozenset(v) for v in theirs.values()
        }


def _core_partition(points, core, eps, metric):
    labels = [None] * len(points)
    cluster = 0
    for start in range(len(points)):
        if not core[start] or labels[start] is not None:
            continue
        labels[start] = cluster
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in range(len(points)):
                if (core[v] and labels[v] is None
                        and dist(points[u], points[v], metric) <= eps):
                    labels[v] = cluster
                    queue.append(v)
        cluster += 1
    return labels


class TestExactTies:
    """With ``min_pts=1`` every point is a core point, so the clusters are
    the ε-components — the same ones SGB-Any finds, on exact float ties
    too: the R-tree window only gathers, ``within`` decides each hit."""

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    @pytest.mark.parametrize("seed", range(12))
    def test_min_pts_one_is_the_eps_components(self, seed, metric, backend):
        points, eps = decimal_lattice(seed, n=250)
        with kernels.use_backend(backend):
            components = sgb_any(points, eps, metric=metric,
                                 strategy="all-pairs").labels
        clusters = dbscan(points, eps, min_pts=1, metric=metric).labels
        assert partition_of(clusters) == partition_of(components)
