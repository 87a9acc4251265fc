"""Streaming-vs-batch equivalence (the subsystem's defining invariant).

For SGB-Any (order-independent by construction) a snapshot after ingesting
any prefix in any micro-batching must equal the batch operator on that
prefix, for every metric, eps, and batch size — including batch size 1 and
one giant batch.  For SGB-All, which is order-dependent in general, the
guarantee is conditional: equality holds for the same insertion order and
seed (see docs/architecture.md, "Streaming SGB").
"""

import random
import zlib

import pytest

from repro.core.api import sgb_all, sgb_any, sgb_stream
from repro.core.sgb_any import SGBAnyOperator
from repro.stats.chooser import ANY_STRATEGIES

METRICS = ["l2", "linf", "l1"]
EPS_VALUES = [0.3, 0.9, 2.5]
BATCH_SIZES = [1, 7, None]  # None -> one giant batch of size n


def random_points(n, seed):
    rng = random.Random(seed)
    return [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]


def stable_seed(*parts) -> int:
    """Deterministic across processes (unlike hash() on strings)."""
    return zlib.crc32("-".join(str(p) for p in parts).encode()) % 1000


def batch_sizes_for(n):
    return [n if b is None else b for b in BATCH_SIZES]


class TestAnyEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_full_stream_across_batch_sizes(self, metric, eps):
        pts = random_points(140, seed=stable_seed(metric, eps))
        expected = sgb_any(pts, eps, metric)
        for batch_size in batch_sizes_for(len(pts)):
            stream = sgb_stream("any", eps=eps, metric=metric,
                                batch_size=batch_size)
            stream.extend(pts)
            snap = stream.snapshot()
            assert snap.partition() == expected.partition(), batch_size
            assert snap.labels == expected.labels, batch_size

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_prefixes(self, seed):
        """Snapshots taken at random cut points all equal the batch
        operator run over the corresponding prefix."""
        rng = random.Random(seed)
        pts = random_points(120, seed=seed + 50)
        eps = rng.choice(EPS_VALUES)
        metric = rng.choice(METRICS)
        batch_size = rng.choice([1, 3, 7, 31, 120])
        cuts = sorted(rng.sample(range(1, len(pts) + 1), 4))
        stream = sgb_stream("any", eps=eps, metric=metric,
                            batch_size=batch_size)
        fed = 0
        for cut in cuts:
            stream.extend(pts[fed:cut])
            fed = cut
            snap = stream.snapshot()
            batch = sgb_any(pts[:cut], eps, metric)
            assert snap.partition() == batch.partition(), (seed, cut)

    def test_shuffled_input_same_partition(self):
        """Order independence carries over to the streaming engine: the
        same point set in a different order gives the same partition of
        coordinates (not indices)."""
        pts = random_points(100, seed=77)
        shuffled = pts[:]
        random.Random(1).shuffle(shuffled)
        a = sgb_stream("any", eps=0.8, batch_size=9, points=pts).snapshot()
        b = sgb_stream("any", eps=0.8, batch_size=9,
                       points=shuffled).snapshot()
        part_a = {frozenset(pts[i] for i in g)
                  for g in a.groups().values()}
        part_b = {frozenset(shuffled[i] for i in g)
                  for g in b.groups().values()}
        assert part_a == part_b

    @pytest.mark.parametrize("kind", ANY_STRATEGIES)
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_same_index_same_work(self, kind, metric):
        """Batch and streaming run one index: equal labels and equal
        probe / candidate / distance counts, not merely equal groups.
        eps 2.5 fills the probes past the kernels' vectorization
        thresholds as the stream grows, so both code paths count."""
        pts = random_points(400, seed=stable_seed(kind, metric))
        batch = SGBAnyOperator(2.5, metric, strategy=kind)
        labels = batch.add_many(pts).finalize().labels
        stream = sgb_stream("any", eps=2.5, metric=metric, strategy=kind,
                            batch_size=1)
        stream.extend(pts)
        assert stream.snapshot().labels == labels
        for counter in ("index_probes", "candidates",
                        "distance_computations"):
            assert getattr(stream.stats, counter) == \
                getattr(batch.stats, counter), counter


class TestAllEquivalence:
    """SGB-All equivalence under order-preserving ingestion."""

    @pytest.mark.parametrize("clause",
                             ["join-any", "eliminate", "form-new-group"])
    @pytest.mark.parametrize("metric", ["l2", "linf"])
    def test_full_stream_across_batch_sizes(self, clause, metric):
        pts = random_points(110, seed=stable_seed(clause, metric))
        eps = 0.9
        expected = sgb_all(pts, eps, metric, on_overlap=clause, seed=7)
        for batch_size in batch_sizes_for(len(pts)):
            stream = sgb_stream("all", eps=eps, metric=metric,
                                batch_size=batch_size,
                                on_overlap=clause, seed=7)
            stream.extend(pts)
            snap = stream.snapshot()
            assert snap == expected, (clause, batch_size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_prefixes(self, seed):
        rng = random.Random(seed)
        pts = random_points(90, seed=seed + 10)
        eps = rng.choice([0.6, 1.2])
        clause = rng.choice(["join-any", "eliminate", "form-new-group"])
        batch_size = rng.choice([1, 7, 90])
        cuts = sorted(rng.sample(range(1, len(pts) + 1), 3))
        stream = sgb_stream("all", eps=eps, batch_size=batch_size,
                            on_overlap=clause, seed=seed)
        fed = 0
        for cut in cuts:
            stream.extend(pts[fed:cut])
            fed = cut
            snap = stream.snapshot()
            batch = sgb_all(pts[:cut], eps, on_overlap=clause, seed=seed)
            assert snap == batch, (seed, cut)
