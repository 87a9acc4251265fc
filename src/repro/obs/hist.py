"""Fixed log-bucketed latency histograms.

EXPLAIN ANALYZE's per-node times only report *totals*; a histogram keeps
the distribution.  The service records its request, queue-wait and
execution latencies into them (:mod:`repro.service.metrics`), and the
benchmark reads those back from ``/metrics``.  The SGB operators record
none: their work is counted in :class:`~repro.obs.metrics.StreamStats`
and timed by spans.

:class:`LatencyHistogram` is a fixed set of base-2 log buckets from 1 µs
to ~9.5 h plus an overflow bucket.  Observations are O(log n_buckets)
(a bisect over the precomputed bounds), merging two histograms is exact
(bucket-wise addition, which is how one bag folds into another), and
quantiles are upper-bound estimates in the Prometheus style (the
reported p99 is the smallest bucket boundary with at least 99 % of the
mass at or below it, clamped to the observed max).

The bucket scheme is *fixed* (not per-histogram) so that any two
histograms anywhere in the system can be merged and so the Prometheus
``le`` label values are stable across runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterator, List, Tuple

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
    """Counts of observations per fixed log bucket, plus sum/min/max.

    >>> h = LatencyHistogram()
    >>> for v in (1e-6, 2e-6, 3e-6, 1.0):
    ...     h.observe(v)
    >>> h.count
    4
    >>> h.quantile(0.5) <= h.quantile(0.99) <= h.max_s
    True
    """

    __slots__ = ("counts", "count", "sum_s", "max_s", "min_s")

    def __init__(self) -> None:
        self.counts: List[int] = [0] * (N_BUCKETS + 1)
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0
        self.min_s = math.inf

    # -- recording ---------------------------------------------------------
    def observe(self, seconds: float) -> None:
        self.counts[bucket_index(seconds)] += 1
        self.count += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        if seconds < self.min_s:
            self.min_s = seconds

    # -- queries -----------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Upper-bound quantile estimate (Prometheus style).

        Returns the smallest bucket boundary such that at least ``q`` of
        the observations are at or below it, clamped to the observed
        maximum (so ``quantile(1.0) == max_s``).  Zero when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                if i >= N_BUCKETS:  # overflow bucket has no finite bound
                    return self.max_s
                return min(BUCKET_BOUNDS_S[i], self.max_s)
        return self.max_s  # pragma: no cover - unreachable (seen == count)

    def percentiles(self) -> Dict[str, float]:
        return {
            "p50_s": self.quantile(0.50),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "max_s": self.max_s,
        }

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
        if other.max_s > self.max_s:
            self.max_s = other.max_s
        if other.min_s < self.min_s:
            self.min_s = other.min_s
        return self

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": self.count,
            "sum_s": self.sum_s,
        }
        out.update(self.percentiles())
        return out

    def __bool__(self) -> bool:
        return self.count > 0

    def __repr__(self) -> str:
        if not self.count:
            return "LatencyHistogram(empty)"
        p = self.percentiles()
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={p['p50_s']:.6f}s, p99={p['p99_s']:.6f}s, "
            f"max={self.max_s:.6f}s)"
        )
