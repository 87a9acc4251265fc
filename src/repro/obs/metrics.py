"""Counter primitives for operator observability.

The paper's evaluation (§8) argues for SGB through measured operator
internals — distance computations avoided, index probes issued, groups
touched — so the engine needs a uniform way to collect exactly those
numbers.  Two containers, one vocabulary (:data:`SGB_COUNTER_FIELDS`):

* :class:`StreamStats` — the slotted counter struct.  Whoever does the
  work writes it: :class:`~repro.core.sgb_all.SGBAllOperator` and
  :class:`~repro.core.sgb_any.SGBAnyOperator` own one as ``.stats`` and
  count into it unconditionally (plain attribute adds), and so does
  the SGB-Any stream engine,
  :class:`~repro.streaming.any_engine.StreamingSGBAny`; an SGB-All
  stream's engine *is* ``SGBAllOperator``.  A stream handle's ``stats``
  is its engine's.
* :class:`MetricBag` — a bag of monotonic counters and named latency
  histograms.  A plan node's bag receives each SGB operator's struct
  once it has finalized (:meth:`MetricBag.add_stats`, called by
  :func:`~repro.core.parallel.group_partition`); the service keeps its
  own bag for its request latencies.  So EXPLAIN ANALYZE rows,
  ``/metrics`` and per-batch stream deltas report the same names for
  the same things.  Wall time per plan node is
  :class:`~repro.obs.explain.NodeMetrics`'s business, per phase the
  tracer's; the SGB operators record no histogram.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.hist import LatencyHistogram


#: Canonical SGB counter names, in reporting order — the fields of
#: :class:`StreamStats` and the names a MetricBag receives them under:
#:
#: points
#:     Points ingested by the operator.
#: groups_created
#:     Groups opened (SGB-Any: one per point, pre-merge; SGB-All: new
#:     cliques started, including FORM-NEW-GROUP regrouping passes).
#: groups_merged
#:     SGB-Any component merges (unions that reduced the component count).
#: groups_dropped
#:     SGB-All groups emptied by ELIMINATE / FORM-NEW-GROUP overlap
#:     processing.
#: eliminated / deferred
#:     Points dropped or deferred by the ON-OVERLAP clause.
#: index_probes
#:     FindCloseGroups / neighbor probes issued (R-tree or grid window
#:     queries for the indexed strategies; one per scan for the naive ones).
#: candidates
#:     Entries returned by those probes before exact verification (groups
#:     scanned, for the linear strategies).
#: distance_computations
#:     Similarity-predicate evaluations, read off the operator's
#:     CountingMetric (``count_distance_computations=True`` wraps the
#:     metric in one; 0 when the metric is not counted).
SGB_COUNTER_FIELDS = (
    "points",
    "groups_created",
    "groups_merged",
    "groups_dropped",
    "eliminated",
    "deferred",
    "index_probes",
    "candidates",
    "distance_computations",
)

#: Executor-level counters (maintained by plan nodes, not the core
#: operators).  ``rows_skipped_null`` counts input rows discarded because a
#: grouping attribute was NULL — a deliberate divergence from vanilla GROUP
#: BY's single-NULL-group semantics (see docs/sql_dialect.md).
#: ``rows_spooled`` counts rows materialized into a blocking node's tuple
#: store (the SGB §8.2 spool) — the "rows materialized" column of
#: EXPLAIN ANALYZE's resource accounting.
EXEC_COUNTER_FIELDS = ("rows_skipped_null", "rows_spooled")


class StreamStats:
    """The SGB counter struct: one int per :data:`SGB_COUNTER_FIELDS` name.

    Written by the code that does the work — the batch operators own one
    as ``.stats`` and the streaming engines expose theirs under the same
    name — and read by everything else (a plan node's bag after
    ``finalize()``, the micro-batcher's per-flush delta, ``/metrics``).
    Counters are plain ints so diffing two snapshots is exact and cheap.
    ``wall_time_s`` is the ingest wall time the micro-batcher attributes;
    nothing else writes it.
    """

    __slots__ = SGB_COUNTER_FIELDS + ("wall_time_s",)

    def __init__(self) -> None:
        for f in SGB_COUNTER_FIELDS:
            setattr(self, f, 0)
        self.wall_time_s = 0.0

    def copy(self) -> "StreamStats":
        out = StreamStats()
        for f in self.__slots__:
            setattr(out, f, getattr(self, f))
        return out

    def __sub__(self, earlier: "StreamStats") -> "StreamStats":
        """Delta between two snapshots of the same counters."""
        out = StreamStats()
        for f in self.__slots__:
            setattr(out, f, getattr(self, f) - getattr(earlier, f))
        return out

    def as_dict(self) -> Dict[str, float]:
        return {f: getattr(self, f) for f in self.__slots__}

    def nonzero(self) -> Dict[str, int]:
        """The counters that moved (``wall_time_s`` is not a counter)."""
        return {
            f: getattr(self, f) for f in SGB_COUNTER_FIELDS
            if getattr(self, f)
        }

    def span_attrs(self) -> Dict[str, float]:
        """Compact attributes for a trace span: the non-zero counters
        (a micro-batch delta is mostly zeros) plus ``wall_ms``."""
        out: Dict[str, float] = dict(self.nonzero())
        if self.wall_time_s:
            out["wall_ms"] = round(self.wall_time_s * 1000.0, 3)
        return out

    def __eq__(self, other: object) -> bool:
        """Equal counters: the same work, however long it took (two runs
        never share a ``wall_time_s``)."""
        if not isinstance(other, StreamStats):
            return NotImplemented
        return self.nonzero() == other.nonzero()

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)}" for f in SGB_COUNTER_FIELDS)
        return f"StreamStats({body}, wall_time_s={self.wall_time_s:.6f})"


class MetricBag:
    """Monotonic counters plus named latency histograms.

    >>> bag = MetricBag()
    >>> bag.incr("index_probes")
    >>> bag.incr("candidates", 4)
    >>> bag.get("candidates")
    4

    Latency *distributions* (the service's per-request ones) go into
    log-bucketed :class:`~repro.obs.hist.LatencyHistogram` entries via
    :meth:`observe`; they merge across bags exactly like the flat
    counters.
    """

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}

    # -- counters ----------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        if name.endswith("_s"):
            # ``_s`` names seconds everywhere a duration sits beside the
            # counters (``StreamStats.wall_time_s``, ``NodeMetrics.time_s``,
            # the histogram summaries); a bag entry is a count.
            raise ValueError(
                f"counter name {name!r} ends with '_s', which is reserved "
                f"for durations in seconds"
            )
        self.counters[name] = self.counters.get(name, 0) + n

    def get(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    # -- histograms --------------------------------------------------------
    def histogram(self, name: str) -> LatencyHistogram:
        """Get-or-create the named latency histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram()
        return hist

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency observation into the named histogram."""
        self.histogram(name).observe(seconds)

    # -- aggregation -------------------------------------------------------
    def add_stats(self, stats: StreamStats) -> None:
        """Fold an operator's counter struct in (the fields that moved)."""
        for name, value in stats.nonzero().items():
            self.incr(name, value)

    def merge(self, other: "MetricBag") -> "MetricBag":
        """Fold ``other``'s counters and histograms into this."""
        for name, value in other.counters.items():
            self.incr(name, value)
        for name, hist in other.histograms.items():
            self.histogram(name).merge(hist)
        return self

    def as_dict(self) -> Dict[str, int]:
        """The counters.  Histograms are *not* flattened here — see the
        Prometheus exporter."""
        return dict(self.counters)

    def __bool__(self) -> bool:
        return bool(self.counters or self.histograms)

    def __repr__(self) -> str:
        body = ", ".join(
            f"{k}={v}" for k, v in sorted(self.as_dict().items())
        )
        return f"MetricBag({body})"
