"""Fixed log-bucketed latency histograms.

EXPLAIN ANALYZE's per-node times only report *totals*; a histogram keeps
the distribution.  The service records its request, queue-wait and
execution latencies into them (:mod:`repro.service.metrics`), and the
benchmark reads those back from ``/metrics``.  The SGB operators record
none: their work is counted in :class:`~repro.obs.metrics.StreamStats`
and timed by spans.

:class:`LatencyHistogram` is a fixed set of base-2 log buckets from 1 µs
to ~9.5 h plus an overflow bucket.  Observations are O(log n_buckets)
(a bisect over the precomputed bounds), and merging two histograms is
exact (bucket-wise addition, which is how one bag folds into another).
The exporter reads ``count``, ``sum_s`` and :meth:`bucket_items`;
quantiles are the scraper's to estimate from the buckets.

The bucket scheme is *fixed* (not per-histogram) so that any two
histograms anywhere in the system can be merged and so the Prometheus
``le`` label values are stable across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator, List, Tuple

#: First finite bucket boundary, in seconds (1 µs).
BUCKET_START_S = 1e-6

#: Multiplicative bucket growth factor (base-2 log buckets).
BUCKET_GROWTH = 2.0

#: Number of finite buckets; the last finite boundary is
#: ``BUCKET_START_S * BUCKET_GROWTH ** (N_BUCKETS - 1)`` ≈ 34360 s.  One
#: implicit overflow (+Inf) bucket follows.
N_BUCKETS = 36

#: Precomputed inclusive upper bounds of the finite buckets.
BUCKET_BOUNDS_S: Tuple[float, ...] = tuple(
    BUCKET_START_S * BUCKET_GROWTH ** i for i in range(N_BUCKETS)
)

def bucket_index(seconds: float) -> int:
    """The bucket an observation falls into.

    Bounds are *inclusive* upper bounds (Prometheus ``le`` semantics): an
    observation exactly on a boundary lands in that boundary's bucket.
    Index ``N_BUCKETS`` is the overflow bucket.  Non-positive values land
    in bucket 0.
    """
    if seconds <= BUCKET_START_S:
        return 0
    return bisect_left(BUCKET_BOUNDS_S, seconds)


class LatencyHistogram:
    """Counts of observations per fixed log bucket, plus their sum.

    >>> h = LatencyHistogram()
    >>> for v in (1e-6, 2e-6, 3e-6, 1.0):
    ...     h.observe(v)
    >>> h.count
    4
    >>> items = list(h.bucket_items())
    >>> items[:3], items[-1]
    ([(1e-06, 1), (2e-06, 2), (4e-06, 3)], (inf, 4))
    """

    __slots__ = ("counts", "count", "sum_s")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * (N_BUCKETS + 1)
        self.count = 0
        self.sum_s = 0.0

    # -- recording ---------------------------------------------------------
    def observe(self, seconds: float) -> None:
        self.counts[bucket_index(seconds)] += 1
        self.count += 1
        self.sum_s += seconds

    # -- queries -----------------------------------------------------------
    def bucket_items(self) -> Iterator[Tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, Prometheus-shaped.

        Trailing all-equal buckets are collapsed: only buckets up to the
        last non-empty one are yielded, followed by ``(inf, count)``.
        """
        cumulative = 0
        last = max(
            (i for i, n in enumerate(self.counts[:N_BUCKETS]) if n), default=-1
        )
        for i in range(last + 1):
            cumulative += self.counts[i]
            yield BUCKET_BOUNDS_S[i], cumulative
        yield math.inf, self.count

    # -- aggregation -------------------------------------------------------
    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum_s += other.sum_s
        return self

    def __bool__(self) -> bool:
        return self.count > 0
