"""SGB-Any: similarity group-by under the *distance-to-any* semantics (§7).

Groups are the connected components of the ε-neighbourhood graph: a point
belongs to a group if it is within ``ε`` of at least one other member.  When
a new point touches several groups they merge, so no overlap clause exists.

The operator is one loop (Procedures 7–9): probe an index over the points
seen so far, union the new point with every ε-neighbour, insert it.  The
index behind ``FindCandidateGroups`` is one of three strategies sharing a
``probe`` / ``insert`` interface:

* :class:`NaiveAnyStrategy` — scan every previously processed point (O(n²));
* :class:`RTreeAnyStrategy` — Procedure 8: an R-tree over processed points
  answers the ε-box window query, L2 candidates are verified exactly, and a
  Union-Find forest tracks created/merged groups (Procedure 9);
* :class:`GridAnyStrategy` — ablation: a uniform hash grid instead of the
  R-tree (same window-query contract).

Because the components do not depend on the order points are processed in,
the same strategies serve the batch :class:`SGBAnyOperator` and the
incremental :class:`~repro.streaming.any_engine.StreamingSGBAny`
(:func:`make_any_strategy` builds them for both), and all three produce
bit-identical group memberships.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, Union

from repro import kernels
from repro.core.distance import Metric, resolve_metric
from repro.core.result import GroupingResult
from repro.dsu.union_find import UnionFind
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.rectangle import Rect
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.obs.metrics import MetricBag
from repro.obs.trace import Tracer, maybe_span

Point = Tuple[float, ...]


class _AnyStrategyBase:
    """An ε-neighbour index over the points seen so far.

    ``probe`` answers one ε-range query as ``(n_candidates, neighbour
    ids)`` — the raw entries the index returned before exact
    verification (points scanned, for the naive strategy) and the ids
    actually within ε; ``insert`` adds the probed point afterwards.  The
    batch operator and :class:`~repro.streaming.any_engine.StreamingSGBAny`
    run the same probe-union-insert loop over these classes.  Every
    strategy verifies candidates against one backend-native point store
    (vectorized under the numpy backend, ``within`` loops otherwise).
    """

    name = "abstract"

    def __init__(self, eps: float, metric: Metric):
        self.eps = eps
        self.metric = metric
        self._store = kernels.make_point_store()
        #: Set by an owner that collects metrics: every bulk verification
        #: pass is timed into its ``distance_batch_latency`` histogram.
        self.metrics: Optional[MetricBag] = None
        #: Cleared by an owner that never reads the candidate tally (the
        #: numpy grid probe then skips the extra box-count pass).
        self.count_candidates = True

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        raise NotImplementedError

    def insert(self, point_id: int, point: Point) -> None:
        """Store the point; the indexed strategies also index it."""
        stored = self._store.append(point)
        assert point_id == stored, "ids must be dense and ordered"

    def _verify(self, query: Callable[..., Any], *args: Any) -> Any:
        """Run one bulk distance-verification pass of the point store."""
        if self.metrics is None:
            return query(*args)
        with self.metrics.hist_timer("distance_batch_latency"):
            return query(*args)


class NaiveAnyStrategy(_AnyStrategyBase):
    """All-pairs scan over processed points (one
    :meth:`~repro.kernels.PointStore.query_all` per probe)."""

    name = "all-pairs"

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        return len(self._store), self._verify(
            self._store.query_all, point, self.eps, self.metric
        )


class RTreeAnyStrategy(_AnyStrategyBase):
    """Procedure 8: R-tree (``Points_IX``) over processed points.

    The ε-box window query is exact for L∞ (the box *is* the L∞ ball); for
    other metrics the returned set is verified with the actual distance
    (``VerifyPoints`` in the paper).
    """

    name = "index"

    def __init__(self, eps: float, metric: Metric, rtree_max_entries: int = 16):
        super().__init__(eps, metric)
        self._rtree = RTree(max_entries=rtree_max_entries)

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        hits = self._rtree.search(Rect.eps_box(point, self.eps))
        if self.metric.name == "linf":
            return len(hits), hits
        # VerifyPoints: one bulk predicate pass over the leaf hits.
        return len(hits), self._verify(
            self._store.query_ids, hits, point, self.eps, self.metric
        )

    def insert(self, point_id: int, point: Point) -> None:
        self._rtree.insert(Rect.from_point(point), point_id)
        self._store.append(point)


class GridAnyStrategy(_AnyStrategyBase):
    """Uniform-grid variant (ablation; see DESIGN.md)."""

    name = "grid"

    def __init__(self, eps: float, metric: Metric):
        if eps <= 0:
            raise InvalidParameterError(
                "the grid strategy requires eps > 0 (cell side is eps)"
            )
        super().__init__(eps, metric)
        self._grid = GridIndex(cell_size=eps)

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        # Gather candidate ids from the cell neighbourhood, then run the
        # window-containment + distance verification as one bulk pass.
        ids = self._grid.items_in_cell_range(Rect.eps_box(point, self.eps))
        neighbors, n_window = self._verify(
            self._store.query_ids_eps_box,
            ids, point, self.eps, self.metric, self.count_candidates,
        )
        return n_window, neighbors

    def insert(self, point_id: int, point: Point) -> None:
        self._grid.insert(point, point_id)
        self._store.append(point)


#: The one alias table: SQL / API strategy names and the streaming
#: engine's ``index=`` kinds resolve through it.
_STRATEGIES = {
    "all-pairs": NaiveAnyStrategy,
    "allpairs": NaiveAnyStrategy,
    "naive": NaiveAnyStrategy,
    "linear": NaiveAnyStrategy,
    "index": RTreeAnyStrategy,
    "indexed": RTreeAnyStrategy,
    "rtree": RTreeAnyStrategy,
    "grid": GridAnyStrategy,
}


def make_any_strategy(kind: str, eps: float, metric: Metric,
                      rtree_max_entries: int = 16) -> _AnyStrategyBase:
    """Build the ε-neighbour index named ``kind`` (see ``_STRATEGIES``)."""
    try:
        strategy_cls = _STRATEGIES[kind.strip().lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown strategy {kind!r}; expected one of "
            f"{sorted(set(_STRATEGIES))}"
        ) from None
    if strategy_cls is GridAnyStrategy and eps == 0:
        # eps == 0 degenerates to equality grouping, which the grid
        # cannot express (the cell side is eps); the naive scan gives
        # identical components, so quietly take that path instead.
        strategy_cls = NaiveAnyStrategy
    if strategy_cls is RTreeAnyStrategy:
        return RTreeAnyStrategy(eps, metric, rtree_max_entries)
    return strategy_cls(eps, metric)


def component_labels(uf: UnionFind, n_points: int) -> List[int]:
    """Dense labels for point ids ``0..n_points-1``, numbered in order of
    first appearance over insertion order."""
    labels: List[int] = []
    root_to_label: dict = {}
    find = uf.find
    for pid in range(n_points):
        root = find(pid)
        label = root_to_label.get(root)
        if label is None:
            label = root_to_label[root] = len(root_to_label)
        labels.append(label)
    return labels


class SGBAnyOperator:
    """Streaming SGB-Any operator (Procedure 7).

    Each arriving point is unioned with every ε-neighbour already seen; the
    Union-Find forest merges groups on contact (Procedure 9,
    ``MergeGroupsInsert``), so the final components are exactly the connected
    components of the ε-graph regardless of input order.
    """

    def __init__(
        self,
        eps: float,
        metric: Union[str, Metric] = "l2",
        strategy: str = "index",
        rtree_max_entries: int = 16,
        count_distance_computations: bool = False,
        metrics: Optional[MetricBag] = None,
        tracer: Optional[Tracer] = None,
    ):
        if eps < 0:
            raise InvalidParameterError(f"eps must be non-negative, got {eps}")
        self.eps = float(eps)
        self.metric = resolve_metric(metric)
        self.metrics = metrics
        self.tracer = tracer
        if count_distance_computations or metrics is not None:
            from repro.core.stats import CountingMetric

            if not hasattr(self.metric, "calls"):
                self.metric = CountingMetric(self.metric)
        self._strategy = make_any_strategy(
            strategy, self.eps, self.metric, rtree_max_entries
        )
        self._strategy.metrics = metrics
        # The candidate tally feeds the ``candidates`` counter and the
        # CountingMetric charge; both imply a counting metric here.
        self._strategy.count_candidates = hasattr(self.metric, "calls")
        self._uf = UnionFind()
        self._points: List[Point] = []
        self._dim: Optional[int] = None
        self._finalized = False

    @property
    def strategy_name(self) -> str:
        return self._strategy.name

    @property
    def distance_computations(self) -> int:
        """Similarity-predicate evaluations so far (requires
        ``count_distance_computations=True``)."""
        calls = getattr(self.metric, "calls", None)
        if calls is None:
            raise RuntimeError(
                "construct the operator with count_distance_computations="
                "True to collect this statistic"
            )
        return calls

    def add(self, point: Sequence[float]) -> None:
        if self._finalized:
            raise RuntimeError("operator already finalized")
        pt = tuple(float(v) for v in point)
        if self._dim is None:
            self._dim = len(pt)
            if self._dim < 1:
                raise InvalidParameterError("points must have >= 1 dimension")
        elif len(pt) != self._dim:
            raise DimensionMismatchError(
                f"point dimension {len(pt)} != {self._dim}"
            )
        pid = len(self._points)
        self._points.append(pt)
        self._uf.add(pid)
        bag = self.metrics
        if bag is None:
            _, neighbors = self._strategy.probe(pt)
        else:
            bag.incr("points")
            bag.incr("groups_created")
            t0 = time.perf_counter()
            n_candidates, neighbors = self._strategy.probe(pt)
            bag.observe("probe_latency", time.perf_counter() - t0)
            bag.incr("index_probes")
            bag.incr("candidates", n_candidates)
        before = self._uf.n_components
        for nb in neighbors:
            self._uf.union(pid, nb)
        if bag is not None:
            bag.incr("groups_merged", before - self._uf.n_components)
        self._strategy.insert(pid, pt)

    def add_many(self, points: Iterable[Sequence[float]]) -> "SGBAnyOperator":
        with maybe_span(self.tracer, "ingest",
                        strategy=self.strategy_name) as sp:
            n0 = len(self._points)
            for p in points:
                self.add(p)
            sp.set(points=len(self._points) - n0)
        return self

    def finalize(self) -> GroupingResult:
        if self._finalized:
            raise RuntimeError("operator already finalized")
        self._finalized = True
        if self.metrics is not None:
            self.metrics.incr(
                "distance_computations", getattr(self.metric, "calls", 0)
            )
        with maybe_span(self.tracer, "finalize",
                        points=len(self._points)) as sp:
            labels = component_labels(self._uf, len(self._points))
            sp.set(groups=self._uf.n_components)
        return GroupingResult(labels, self._points)
