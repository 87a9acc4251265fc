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

``snapshot()`` is non-destructive and O(n α(n)); ``result()`` closes the
stream and returns the final grouping.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.api import check_eps, validate_point
from repro.core.distance import CountingMetric, Metric, resolve_metric
from repro.core.result import GroupingResult
from repro.core.sgb_any import make_any_strategy
from repro.dsu.union_find import UnionFind, component_labels
from repro.errors import StreamStateError
from repro.obs.metrics import StreamStats

Point = Tuple[float, ...]


class StreamingSGBAny:
    """Maintains SGB-Any groups online under point insertion.

    Parameters
    ----------
    eps:
        Similarity threshold, strictly positive (the grid index is sized
        by ε).
    metric:
        ``"l2"``, ``"linf"``, ``"l1"``, or a Metric instance.
    index:
        ``"grid"`` (default; constant-cell probes), ``"rtree"``, or
        ``"linear"`` (all-pairs baseline) — any SGB-Any strategy name or
        alias the batch operator accepts.
    count_distances:
        Wrap the metric in a counting proxy so
        ``stats.distance_computations`` is populated.

    >>> eng = StreamingSGBAny(eps=1.0)
    >>> eng.extend([(0, 0), (0.5, 0), (9, 9)])
    >>> eng.snapshot().group_sizes()
    [2, 1]
    >>> eng.insert((8.5, 9.0))   # merges with (9, 9) on contact
    >>> eng.n_groups
    2
    """

    def __init__(
        self,
        eps: float,
        metric: Union[str, Metric] = "l2",
        index: str = "grid",
        rtree_max_entries: int = 16,
        count_distances: bool = False,
    ):
        check_eps(eps, require_positive=True)
        self.eps = float(eps)
        self.metric = resolve_metric(metric)
        if count_distances:
            self.metric = CountingMetric(self.metric)
        self._index = make_any_strategy(
            index, self.eps, self.metric, rtree_max_entries
        )
        self._uf = UnionFind()
        self._points: List[Point] = []
        self._dim: Optional[int] = None
        self._closed = False
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    @property
    def index_name(self) -> str:
        return self._index.name

    @property
    def n_points(self) -> int:
        return len(self._points)

    @property
    def n_groups(self) -> int:
        """Current number of connected components."""
        return self._uf.n_components

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float]) -> None:
        """Ingest one point, merging every component it touches."""
        if self._closed:
            raise StreamStateError("streaming engine already closed by result()")
        pt, self._dim = validate_point(point, self._dim)
        # Probe first: a point the index rejects leaves the engine as it was.
        hits, neighbors = self._index.probe(pt)
        pid = len(self._points)
        self._points.append(pt)
        self._uf.add(pid)
        stats = self.stats
        stats.points += 1
        stats.groups_created += 1
        stats.index_probes += 1
        stats.candidates += hits
        before = self._uf.n_components
        for nb in neighbors:
            self._uf.union(pid, nb)
        stats.groups_merged += before - self._uf.n_components
        self._index.insert(pid, pt)
        if hasattr(self.metric, "calls"):
            stats.distance_computations = self.metric.calls

    def extend(self, points: Iterable[Sequence[float]]) -> None:
        for p in points:
            self.insert(p)

    # ------------------------------------------------------------------
    def snapshot(self) -> GroupingResult:
        """Current grouping, without closing the stream.

        Labels are dense in order of first appearance over insertion order
        — exactly the numbering :meth:`SGBAnyOperator.finalize` produces,
        so a snapshot compares equal to the batch operator run on the same
        prefix.
        """
        labels = component_labels(self._uf, len(self._points))
        return GroupingResult(labels, self._points)

    def result(self) -> GroupingResult:
        """Close the stream and return the final grouping."""
        if self._closed:
            raise StreamStateError("streaming engine already closed by result()")
        out = self.snapshot()
        self._closed = True
        return out

    def __repr__(self) -> str:
        return (
            f"StreamingSGBAny(eps={self.eps}, metric={self.metric.name!r}, "
            f"index={self.index_name!r}, n_points={self.n_points}, "
            f"n_groups={self.n_groups})"
        )
