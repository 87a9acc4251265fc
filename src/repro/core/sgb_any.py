"""SGB-Any: similarity group-by under the *distance-to-any* semantics (§7).

Groups are the connected components of the ε-neighbourhood graph: a point
belongs to a group if it is within ``ε`` of at least one other member.  When
a new point touches several groups they merge, so no overlap clause exists.

The components do not depend on the order points are processed in, so the
operator has two forms over one family of ε-neighbour strategies:

* streaming (Procedures 7–9, the engine of ``sgb_stream("any")``,
  :class:`~repro.streaming.any_engine.StreamingSGBAny`): ``probe`` an index
  over the points seen so far, union the new point with every ε-neighbour,
  ``insert`` it;
* batch (:class:`SGBAnyOperator`, which only ever runs on a fully spooled
  input): ask the strategy for every ε-edge of the whole input at once
  (``edge_blocks``) and fold the blocks into components.

The strategies (:func:`make_any_strategy` builds them for both forms):

* :class:`NaiveAnyStrategy` — scan every previously processed point (O(n²));
* :class:`RTreeAnyStrategy` — Procedure 8: an R-tree over processed points
  gathers with a window query, the predicate verifies every hit;
* :class:`GridAnyStrategy` — a uniform grid of cell side ε, the planner's
  batch default on every check-in statement: in batch one set-at-a-time
  ε-self-join over the binned input (:func:`repro.kernels.eps_self_join`),
  in streaming a hash-grid window probe per arriving point.

The first two answer ``edge_blocks`` with their probe/insert loop.  All
three produce bit-identical group memberships in both forms.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro import kernels
from repro.kernels import EdgeBlock
from repro.core.distance import CountingMetric, Metric, resolve_metric
from repro.core.result import GroupingResult
from repro.errors import DimensionMismatchError, InvalidParameterError
from repro.geometry.rectangle import Rect, probe_window
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.obs.metrics import MetricBag, StreamStats
from repro.obs.trace import Tracer, maybe_span

Point = Tuple[float, ...]

#: Edges a probe/insert loop buffers before handing a block on.
EDGE_BLOCK = 1 << 16

class _AnyStrategyBase:
    """An ε-neighbour index, in a streaming and a batch form.

    Streaming: ``probe`` answers one ε-range query over the points seen
    so far as ``(n_candidates, neighbour ids)`` — the raw entries the
    index returned before exact verification (points scanned, for the
    naive strategy) and the ids actually within ε; ``insert`` adds the
    probed point afterwards.
    :class:`~repro.streaming.any_engine.StreamingSGBAny` runs that loop.

    Batch: ``edge_blocks`` yields every ε-edge of a whole input, each
    unordered pair once; :class:`SGBAnyOperator` folds the blocks into
    components.  The default is the probe/insert loop over the input.

    Every strategy verifies candidates against one backend-native point
    store (vectorized under the numpy backend, ``within`` loops
    otherwise).
    """

    name = "abstract"

    def __init__(self, eps: float, metric: Metric):
        self.eps = eps
        self.metric = metric
        self._store = kernels.make_point_store()
        #: Set by an owner that collects metrics: every probe (every
        #: verification block, for a join) is timed into ``probe_latency``
        #: and every bulk verification pass into
        #: ``distance_batch_latency``.
        self.metrics: Optional[MetricBag] = None
        #: Cleared by an owner that never reads the candidate tally (the
        #: numpy grid then skips the extra box-count pass).
        self.count_candidates = True

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        raise NotImplementedError

    def insert(self, point_id: int, point: Point) -> None:
        """Store the point; the indexed strategies also index it."""
        stored = self._store.append(point)
        assert point_id == stored, "ids must be dense and ordered"

    def edge_blocks(self, points: Sequence[Point]) -> Iterator[EdgeBlock]:
        """Every ε-edge among ``points`` (ids are positions)."""
        bag = self.metrics
        us: List[int] = []
        vs: List[int] = []
        candidates = 0
        for pid, point in enumerate(points):
            if bag is None:
                hits, neighbors = self.probe(point)
            else:
                t0 = time.perf_counter()
                hits, neighbors = self.probe(point)
                bag.observe("probe_latency", time.perf_counter() - t0)
            candidates += hits
            us.extend([pid] * len(neighbors))
            vs.extend(neighbors)
            self.insert(pid, point)
            if len(us) >= EDGE_BLOCK:
                yield us, vs, candidates
                us, vs, candidates = [], [], 0
        if us or candidates:
            yield us, vs, candidates

    def _verify(self, query: Callable[..., Any], *args: Any) -> Any:
        """Run one bulk distance-verification pass of the point store."""
        if self.metrics is None:
            return query(*args)
        with self.metrics.hist_timer("distance_batch_latency"):
            return query(*args)

    def _window_probe(self, gathered: List[int],
                      point: Point) -> Tuple[int, List[int]]:
        """The verify half of a window probe: keep the gathered ids whose
        point passes ``|p_i - q_i| <= eps`` on every axis (the candidates),
        then the metric (one bulk pass)."""
        neighbors, n_window = self._verify(
            self._store.query_gathered,
            gathered, point, self.eps, self.metric, self.count_candidates,
        )
        return n_window, neighbors


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

    The window (:func:`~repro.geometry.rectangle.probe_window`) only
    gathers; every hit is verified — ``|p_i - q_i| <= eps`` per axis, which
    is the L∞ predicate itself, then the metric for any other
    (``VerifyPoints`` in the paper).
    """

    name = "index"

    def __init__(self, eps: float, metric: Metric, rtree_max_entries: int = 16):
        super().__init__(eps, metric)
        self._rtree = RTree(max_entries=rtree_max_entries)

    def probe(self, point: Point) -> Tuple[int, List[int]]:
        return self._window_probe(
            self._rtree.search(probe_window(point, self.eps)), point
        )

    def insert(self, point_id: int, point: Point) -> None:
        self._rtree.insert(Rect.from_point(point), point_id)
        self._store.append(point)


class GridAnyStrategy(_AnyStrategyBase):
    """Uniform grid of cell side ε: a whole-input ε-self-join in batch,
    a hash-grid window probe per point in streaming."""

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
        return self._window_probe(
            self._grid.items_in_cell_range(probe_window(point, self.eps)),
            point,
        )

    def insert(self, point_id: int, point: Point) -> None:
        self._grid.insert(point, point_id)
        self._store.append(point)

    def edge_blocks(self, points: Sequence[Point]) -> Iterator[EdgeBlock]:
        blocks = kernels.eps_self_join(
            points, self.eps, self.metric, self.count_candidates
        )
        bag = self.metrics
        if bag is None:
            return blocks
        return timed_blocks(blocks, bag)


def timed_blocks(blocks: Iterator[EdgeBlock],
                 bag: MetricBag) -> Iterator[EdgeBlock]:
    """Pass join blocks through, timing each (pair expansion and its one
    verification pass) into both latency histograms."""
    while True:
        t0 = time.perf_counter()
        block = next(blocks, None)
        if block is None:
            return
        elapsed = time.perf_counter() - t0
        bag.observe("probe_latency", elapsed)
        bag.observe("distance_batch_latency", elapsed)
        yield block


#: The one alias table: SQL, batch-API and stream ``strategy=`` names
#: resolve through it.
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


def any_strategy_class(kind: str) -> Type[_AnyStrategyBase]:
    """The strategy class ``kind`` names, under any spelling of
    ``_STRATEGIES``; its ``name`` is the canonical one the cost model
    prices."""
    try:
        return _STRATEGIES[kind.strip().lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown strategy {kind!r}; expected one of "
            f"{sorted(set(_STRATEGIES))}"
        ) from None


def make_any_strategy(kind: str, eps: float, metric: Metric,
                      rtree_max_entries: int = 16) -> _AnyStrategyBase:
    """Build the ε-neighbour index named ``kind`` (see ``_STRATEGIES``)."""
    strategy_cls = any_strategy_class(kind)
    if strategy_cls is GridAnyStrategy and eps == 0:
        # eps == 0 degenerates to equality grouping, which the grid
        # cannot express (the cell side is eps); the naive scan gives
        # identical components, so quietly take that path instead.
        strategy_cls = NaiveAnyStrategy
    if strategy_cls is RTreeAnyStrategy:
        return RTreeAnyStrategy(eps, metric, rtree_max_entries)
    return strategy_cls(eps, metric)


class SGBAnyOperator:
    """Batch SGB-Any operator: buffer the input, group it at ``finalize``.

    The groups are the connected components of the ε-graph (Procedure 9's
    ``MergeGroupsInsert`` applied to every ε-edge), which do not depend on
    input order, so nothing is grouped until the whole input is buffered:
    ``finalize`` asks the strategy for the ε-edges of the input and folds
    them into a backend-native component structure.
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
            if not hasattr(self.metric, "calls"):
                self.metric = CountingMetric(self.metric)
        self._strategy = make_any_strategy(
            strategy, self.eps, self.metric, rtree_max_entries
        )
        self._strategy.metrics = metrics
        # The candidate tally feeds the ``candidates`` counter and the
        # CountingMetric charge; both imply a counting metric here.
        self._strategy.count_candidates = hasattr(self.metric, "calls")
        #: Filled in by ``finalize`` (nothing is grouped before it); a
        #: ``metrics=`` bag receives it there.
        self.stats = StreamStats()
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

    def _check_dims(self, dims: Iterable[int]) -> None:
        for dim in dims:
            if self._dim is None:
                if dim < 1:
                    raise InvalidParameterError(
                        "points must have >= 1 dimension"
                    )
                self._dim = dim
            elif dim != self._dim:
                raise DimensionMismatchError(
                    f"point dimension {dim} != {self._dim}"
                )

    def add(self, point: Sequence[float]) -> None:
        if self._finalized:
            raise RuntimeError("operator already finalized")
        pt = tuple(float(v) for v in point)
        self._check_dims((len(pt),))
        self._points.append(pt)

    def add_many(self, points: Iterable[Sequence[float]]) -> "SGBAnyOperator":
        if self._finalized:
            raise RuntimeError("operator already finalized")
        with maybe_span(self.tracer, "ingest",
                        strategy=self.strategy_name) as sp:
            pts = points if isinstance(points, list) else list(points)
            # A list of float tuples (what the SQL spool and the array API
            # hand over) is taken as it is; anything else is coerced.
            if not (set(map(type, pts)) <= {tuple}
                    and set(map(type, chain.from_iterable(pts))) <= {float}):
                pts = [tuple(float(v) for v in p) for p in pts]
            self._check_dims(set(map(len, pts)))
            self._points.extend(pts)
            sp.set(points=len(pts))
        return self

    def finalize(self) -> GroupingResult:
        if self._finalized:
            raise RuntimeError("operator already finalized")
        self._finalized = True
        points = self._points
        n = len(points)
        with maybe_span(self.tracer, "finalize", points=n) as sp:
            components = kernels.make_components(n)
            stats = self.stats
            for us, vs, hits in self._strategy.edge_blocks(points):
                stats.candidates += hits
                components.add_edges(us, vs)
            labels = components.labels()
            groups = components.n_components
            sp.set(groups=groups)
        # One probe per point, each opening a group that edges merge.
        stats.points = stats.groups_created = stats.index_probes = n
        stats.groups_merged = n - groups
        stats.distance_computations = getattr(self.metric, "calls", 0)
        if self.metrics is not None:
            self.metrics.add_stats(stats)
        return GroupingResult(labels, points)
