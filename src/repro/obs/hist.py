"""Fixed log-bucketed latency histograms (the ``HistogramTimer`` layer).

EXPLAIN ANALYZE's per-node times only report *totals* — good enough for
"where did the time go", useless for "how is it distributed".  The
paper's evaluation cares about per-probe behaviour (a single slow
FindCloseGroups probe against a degenerate MBR forest looks identical to
a thousand fast ones in a total), so this module provides the
distribution-preserving counterpart:

* :class:`LatencyHistogram` — a fixed set of base-2 log buckets from 1 µs
  to ~9.5 h plus an overflow bucket.  Observations are O(log n_buckets)
  (a bisect over the precomputed bounds), merging two histograms is exact
  (bucket-wise addition, which is what lets worker-process histograms fold
  back into the parent), and quantiles are upper-bound estimates in the
  Prometheus style (the reported p99 is the smallest bucket boundary with
  at least 99 % of the mass at or below it, clamped to the observed max).
* :class:`HistogramTimer` — the ``with`` adapter that records one elapsed
  wall-time observation into a histogram.

The bucket scheme is *fixed* (not per-histogram) so that any two
histograms anywhere in the system can be merged and so the Prometheus
``le`` label values are stable across processes and runs.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from types import TracebackType
from typing import Dict, Iterator, List, Optional, Tuple, Type

#: Picklable :meth:`LatencyHistogram.state` snapshot:
#: ``(counts, count, sum_s, max_s, min_s)``.
HistState = Tuple[List[int], int, float, float, float]

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

#: Histogram names the engine records when instrumentation is attached;
#: the Prometheus exporter emits these even at zero count so scrape
#: targets have a stable series set.
HISTOGRAM_FIELDS = (
    "probe_latency",
    "distance_batch_latency",
    "micro_batch_latency",
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

    def timer(self) -> "HistogramTimer":
        return HistogramTimer(self)

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

    # -- (de)serialization for worker-process fold-back --------------------
    def state(self) -> HistState:
        """Picklable snapshot; inverse of :meth:`from_state`."""
        return (list(self.counts), self.count, self.sum_s, self.max_s,
                self.min_s)

    @classmethod
    def from_state(cls, state: HistState) -> "LatencyHistogram":
        h = cls()
        counts, h.count, h.sum_s, h.max_s, h.min_s = state
        h.counts = list(counts)
        return h

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


class HistogramTimer:
    """Context manager recording one elapsed-time observation.

    Single-use at a time, and guards against exiting unentered.
    """

    __slots__ = ("_hist", "_t0")

    def __init__(self, hist: LatencyHistogram):
        self._hist = hist
        self._t0: Optional[float] = None

    def __enter__(self) -> "HistogramTimer":
        if self._t0 is not None:
            raise RuntimeError(
                "HistogramTimer is not re-entrant; create a new timer"
            )
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        if self._t0 is None:
            raise RuntimeError("HistogramTimer exited without being entered")
        self._hist.observe(time.perf_counter() - self._t0)
        self._t0 = None
