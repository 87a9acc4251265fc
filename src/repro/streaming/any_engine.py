"""Incremental SGB-Any: connected ε-components maintained under insertion.

SGB-Any is the order-independent member of the operator family (the
companion order-independence analysis, Tang et al., arXiv:1412.4303): its
output is the set of connected components of the ε-neighbourhood graph,
which depends only on the point *set*.  That makes it the natural engine
for continuous ingestion — a snapshot after any prefix equals the batch
operator run on that prefix, regardless of how the prefix was chopped into
micro-batches.

The engine keeps the same two structures as the batch operator, and runs
the same probe-union-insert loop over them:

* the incremental Union-Find forest (``repro/dsu/union_find.py``) holding
  the current components, and
* one of the batch operator's ε-neighbour strategies
  (:func:`repro.core.sgb_any.make_any_strategy`: grid, R-tree or all-pairs
  scan) answering ε-range probes for each arriving point.

It speaks the batch operators' protocol (``add_many`` / ``snapshot`` /
``finalize`` / ``n_points`` / ``stats``), so the stream handle,
:class:`~repro.streaming.micro_batch.MicroBatcher`, drives it and
:class:`~repro.core.sgb_all.SGBAllOperator` alike.  Build one through
:func:`repro.sgb_stream`.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

from repro.core.distance import Metric, counting_metric
from repro.core.result import GroupingResult
from repro.core.sgb_any import make_any_strategy
from repro.dsu.union_find import UnionFind, component_labels
from repro.obs.metrics import StreamStats

Point = Tuple[float, ...]


class StreamingSGBAny:
    """Maintains SGB-Any groups online under point insertion.

    The engine trusts its caller: ``eps`` is strictly positive and every
    point is a float tuple of one dimension with finite coordinates.
    :func:`repro.sgb_stream` and the
    :class:`~repro.streaming.micro_batch.MicroBatcher` in front of it
    check both, once.

    Parameters
    ----------
    eps:
        Similarity threshold (the grid strategy's cell side).
    metric:
        ``"l2"``, ``"linf"``, ``"l1"``, or a Metric instance.
    strategy:
        ``"grid"`` (default; constant-cell probes), ``"rtree"``, or
        ``"linear"`` (all-pairs baseline) — any SGB-Any strategy name or
        alias the batch operator accepts.

    >>> from repro import sgb_stream
    >>> stream = sgb_stream("any", eps=1.0, batch_size=1)
    >>> stream.extend([(0, 0), (0.5, 0), (9, 9)])
    >>> stream.insert((8.5, 9.0))   # merges with (9, 9) on contact
    >>> stream.engine.n_groups
    2
    """

    def __init__(
        self,
        eps: float,
        metric: Union[str, Metric] = "l2",
        strategy: str = "grid",
        rtree_max_entries: int = 16,
    ):
        self.eps = float(eps)
        self.metric = counting_metric(metric)
        self._index = make_any_strategy(
            strategy, self.eps, self.metric, rtree_max_entries
        )
        self._uf = UnionFind()
        self._points: List[Point] = []
        self.stats = StreamStats()

    @property
    def strategy_name(self) -> str:
        return self._index.name

    @property
    def n_points(self) -> int:
        return len(self._points)

    @property
    def n_groups(self) -> int:
        """Current number of connected components."""
        return self._uf.n_components

    def add_many(self, points: Iterable[Point]) -> "StreamingSGBAny":
        """Ingest points in order, merging every component each touches.

        Each point is probed before anything changes, so a point the
        index refuses (raises on) leaves the engine as it was, with the
        points before it ingested.
        """
        stats = self.stats
        try:
            for pt in points:
                hits, neighbors = self._index.probe(pt)
                pid = len(self._points)
                self._points.append(pt)
                self._uf.add(pid)
                stats.points += 1
                stats.groups_created += 1
                stats.index_probes += 1
                stats.candidates += hits
                before = self._uf.n_components
                for nb in neighbors:
                    self._uf.union(pid, nb)
                stats.groups_merged += before - self._uf.n_components
                self._index.insert(pid, pt)
        finally:
            stats.distance_computations = self.metric.calls
        return self

    def snapshot(self) -> GroupingResult:
        """Current grouping.

        Labels are dense in order of first appearance over insertion order
        — exactly the numbering :meth:`SGBAnyOperator.finalize` produces,
        so a snapshot compares equal to the batch operator run on the same
        prefix.
        """
        labels = component_labels(self._uf, len(self._points))
        return GroupingResult(labels, self._points)

    #: The components are final as they stand; closing is the caller's.
    finalize = snapshot
