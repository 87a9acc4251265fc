"""SGB-All: similarity group-by under the *distance-to-all* semantics (§6).

Every output group is a clique under the similarity predicate: each member
is within ``ε`` of **all** other members.  A point may qualify for several
groups; the ``ON-OVERLAP`` clause arbitrates:

* ``join-any`` — insert into one (randomly or first-created) candidate group;
* ``eliminate`` — drop the point, and drop existing members that partially
  overlap the new point's neighbourhood (Procedure ProcessOverlap);
* ``form-new-group`` — defer the point (and partially-overlapping members
  pulled from their groups) to a temporary set ``S'`` and re-run SGB-All on
  ``S'`` recursively until it is empty.

Four interchangeable strategies realize ``FindCloseGroups``:

* :class:`AllPairsStrategy` — Procedure 2, O(n²) member scans;
* :class:`BoundsCheckingStrategy` — Procedure 4, ε-All rectangle test per
  group (the answer for L∞, a filter + convex-hull refinement for 2-D L2);
* :class:`IndexedStrategy` — Procedure 5, an R-tree window query over group
  MBRs replaces the linear scan of groups;
* :class:`GraphStrategy` — batch only: one ε-self-join over the whole
  input, then FindCloseGroups as counting over a point's neighbours.

Rectangles gather, the predicate decides: the paper's three strategies
differ in which groups they look at, never in the test a group has to pass
— the ε-All test on the group's MBR, written as the predicate writes it,
then ``refine`` / ``any_within`` — and ``graph`` reads the same predicate
off the join's edges.  All four therefore produce the same grouping for
the same input order, exact-ε ties included (JOIN-ANY with
``tiebreak="first"`` or a fixed seed; ELIMINATE and FORM-NEW-GROUP are
deterministic), which the property-based tests exploit.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro import kernels
from repro.core.distance import CountingMetric, Metric, resolve_metric
from repro.core.groups import Group, GroupRegistry, eps_all_reach
from repro.core.sgb_any import checked_dim, intake
from repro.core.result import ELIMINATED, GroupingResult
from repro.errors import InvalidParameterError
from repro.geometry.rectangle import Rect, probe_window
from repro.index.rtree import RTree
from repro.obs.metrics import StreamStats
from repro.obs.trace import Tracer, maybe_span

Point = Tuple[float, ...]

#: Canonical ON-OVERLAP clause spellings (SQL accepts hyphen/underscore).
JOIN_ANY = "join-any"
ELIMINATE_CLAUSE = "eliminate"
FORM_NEW_GROUP = "form-new-group"
_OVERLAP_CLAUSES = (JOIN_ANY, ELIMINATE_CLAUSE, FORM_NEW_GROUP)


def normalize_overlap(clause: str) -> str:
    c = clause.strip().lower().replace("_", "-")
    if c in ("join-any", "joinany"):
        return JOIN_ANY
    if c == "eliminate":
        return ELIMINATE_CLAUSE
    if c in ("form-new-group", "form-new", "formnewgroup", "new-group"):
        return FORM_NEW_GROUP
    raise InvalidParameterError(
        f"unknown ON-OVERLAP clause {clause!r}; expected one of {_OVERLAP_CLAUSES}"
    )


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
class _StrategyBase:
    """Owns the live groups and keeps auxiliary structures in sync."""

    name = "abstract"

    def __init__(self, eps: float, metric: Metric, use_hull: bool):
        self.eps = eps
        self.metric = metric
        self.use_hull = use_hull
        self.registry = GroupRegistry()

    # -- FindCloseGroups -------------------------------------------------
    def find_close_groups(
        self, pid: int, point: Point, need_overlap: bool
    ) -> Tuple[int, List[Group], List[Group]]:
        """``(examined, candidates, overlaps)`` for point ``pid``.

        ``examined`` is how many raw entries the strategy looked at before
        exact verification — every live group for the scans, the window
        hits for :class:`IndexedStrategy`, the neighbours tallied for
        :class:`GraphStrategy`; the operator counts it.
        """
        raise NotImplementedError

    def members_within(self, group: Group, pid: int,
                       point: Point) -> List[int]:
        """ProcessOverlap's doomed set: members of ``group`` within ε of
        point ``pid``, in member order."""
        return group.members_within(point)

    # -- mutations ---------------------------------------------------------
    def create_group(self, point_id: int, point: Point) -> Group:
        g = self.registry.new_group(self.eps, self.metric, self.use_hull)
        g.add(point_id, point)
        self._index_insert(g)
        return g

    def add_member(self, group: Group, point_id: int, point: Point) -> None:
        old_mbr = group.mbr
        group.add(point_id, point)
        self._index_moved(group, old_mbr)

    def remove_members(self, group: Group, point_ids: Iterable[int]) -> None:
        old_mbr = group.mbr
        group.remove_members(point_ids)
        if not group.member_ids:
            self._index_delete(group, old_mbr)
            self.registry.drop(group.gid)
        else:
            self._index_moved(group, old_mbr)

    # -- index hooks (no-ops unless the strategy maintains one) -----------
    def _index_insert(self, group: Group) -> None:
        pass

    def _index_moved(self, group: Group, old_mbr: Optional[Rect]) -> None:
        pass

    def _index_delete(self, group: Group, old_mbr: Optional[Rect]) -> None:
        pass


class AllPairsStrategy(_StrategyBase):
    """Naive FindCloseGroups (Procedure 2): scan every member of every group."""

    name = "all-pairs"

    def find_close_groups(
        self, pid: int, point: Point, need_overlap: bool
    ) -> Tuple[int, List[Group], List[Group]]:
        candidates: List[Group] = []
        overlaps: List[Group] = []
        for g in self.registry:
            candidate, overlap = g.scan_flags(point, need_overlap)
            if candidate:
                candidates.append(g)
            elif need_overlap and overlap:
                overlaps.append(g)
        return len(self.registry), candidates, overlaps


class BoundsCheckingStrategy(_StrategyBase):
    """Procedure 4: ε-All rectangle test per group, linear scan of groups.

    The 2-D scan is hand-unrolled: the per-group work is two tests on the
    group's MBR (ε-All for candidates, window overlap for overlap groups),
    and doing them on raw corner tuples (no method dispatch) is what keeps
    this strategy ahead of All-Pairs at bench sizes, matching the paper's
    ordering.  Other dimensions walk the registry through ``Group``'s
    methods.
    """

    name = "bounds-checking"

    def __init__(self, eps: float, metric: Metric, use_hull: bool):
        super().__init__(eps, metric, use_hull)
        self._reach = eps_all_reach(eps, metric)

    def find_close_groups(
        self, pid: int, point: Point, need_overlap: bool
    ) -> Tuple[int, List[Group], List[Group]]:
        if len(point) == 2:
            return self._find_2d(point, need_overlap)
        candidates: List[Group] = []
        overlaps: List[Group] = []
        window = probe_window(point, self.eps) if need_overlap else None
        for g in self.registry:
            if g.accepts(point):
                candidates.append(g)
            elif (
                window is not None
                and g.mbr is not None
                and window.intersects(g.mbr)
                and g.any_within(point)
            ):
                overlaps.append(g)
        return len(self.registry), candidates, overlaps

    def _find_2d(
        self, point: Point, need_overlap: bool
    ) -> Tuple[int, List[Group], List[Group]]:
        candidates: List[Group] = []
        overlaps: List[Group] = []
        x, y = point
        reach = self._reach
        if need_overlap:
            window = probe_window(point, self.eps)
            wlo0, wlo1 = window.lo
            whi0, whi1 = window.hi
        exact = self.metric.name == "linf"
        for g in self.registry:
            mbr = g.mbr
            lo = mbr.lo
            hi = mbr.hi
            # Rect.eps_all_contains, unrolled
            if (x - lo[0] <= reach and hi[0] - x <= reach
                    and y - lo[1] <= reach and hi[1] - y <= reach):
                if exact or g.refine(point):
                    candidates.append(g)
                    continue
                # an L2 false positive may still partially overlap
            if (need_overlap
                    and lo[0] <= whi0 and wlo0 <= hi[0]
                    and lo[1] <= whi1 and wlo1 <= hi[1]
                    and g.any_within(point)):
                overlaps.append(g)
        return len(self.registry), candidates, overlaps


class IndexedStrategy(_StrategyBase):
    """Procedure 5: on-the-fly R-tree over group MBRs.

    A window query around the point returns every group that could be a
    candidate *or* an overlap group (a member within ε of the point lies
    inside the probe window, hence the group MBR intersects it), so only
    returned groups are tested — each by ``accepts`` / ``any_within``, as
    in the linear scans; the window answers nothing, for any metric.
    """

    name = "index"

    def __init__(
        self,
        eps: float,
        metric: Metric,
        use_hull: bool,
        rtree_max_entries: int = 8,
    ):
        super().__init__(eps, metric, use_hull)
        self._rtree = RTree(max_entries=rtree_max_entries)

    def find_close_groups(
        self, pid: int, point: Point, need_overlap: bool
    ) -> Tuple[int, List[Group], List[Group]]:
        candidates: List[Group] = []
        overlaps: List[Group] = []
        hits = self._rtree.search(probe_window(point, self.eps))
        for gid in hits:
            g = self.registry.get(gid)
            if g.accepts(point):
                candidates.append(g)
            elif need_overlap and g.any_within(point):
                overlaps.append(g)
        # Window queries return groups in tree order; keep results stable by
        # creation id so all strategies agree under deterministic tiebreaks.
        candidates.sort(key=lambda g: g.gid)
        overlaps.sort(key=lambda g: g.gid)
        return len(hits), candidates, overlaps

    def _index_insert(self, group: Group) -> None:
        assert group.mbr is not None
        self._rtree.insert(group.mbr, group.gid)

    def _index_moved(self, group: Group, old_mbr: Optional[Rect]) -> None:
        assert group.mbr is not None and old_mbr is not None
        if group.mbr != old_mbr:
            self._rtree.update(old_mbr, group.mbr, group.gid)

    def _index_delete(self, group: Group, old_mbr: Optional[Rect]) -> None:
        assert old_mbr is not None
        self._rtree.delete(old_mbr, group.gid)


class _Clique:
    """A group as :class:`GraphStrategy` keeps it: its member ids."""

    __slots__ = ("gid", "member_ids")

    def __init__(self, gid: int, member_ids: List[int]) -> None:
        self.gid = gid
        self.member_ids = member_ids


_gid = attrgetter("gid")


class GraphStrategy(_StrategyBase):
    """FindCloseGroups as counting over the ε-graph (batch form only).

    The operator joins its whole spooled input once
    (:func:`repro.kernels.eps_self_join`) into a CSR adjacency and hands
    it to every pass.  A point's neighbours that sit in a live group of
    the pass are tallied per group: ``g`` is a candidate iff all its
    members are neighbours (``hits == |g|``), an overlap group iff some
    but not all are, and no other group can be either.  That is the
    similarity predicate itself, decided once per pair by the join, so a
    probe costs O(deg p) and needs no rectangle, hull or refinement.  A
    point of degree 0 needs no probe at all (:meth:`isolated`).
    """

    name = "graph"

    def __init__(self, eps: float, metric: Metric, use_hull: bool,
                 adjacency: Tuple[List[int], List[int]]):
        super().__init__(eps, metric, use_hull)
        self.registry = GroupRegistry(_Clique)
        self._indptr, self._indices = adjacency
        self._group_of: List[Optional[_Clique]] = (
            [None] * (len(self._indptr) - 1))

    def _neighbours(self, pid: int) -> List[int]:
        return self._indices[self._indptr[pid]:self._indptr[pid + 1]]

    def isolated(self, pid: int) -> bool:
        """Whether point ``pid`` has no ε-neighbour: then it is no group's
        candidate or overlap, and no other point's either."""
        return self._indptr[pid] == self._indptr[pid + 1]

    def find_close_groups(
        self, pid: int, point: Point, need_overlap: bool
    ) -> Tuple[int, List[Group], List[Group]]:
        group_of = self._group_of
        hits: Dict[_Clique, int] = {}
        for q in self._neighbours(pid):
            g = group_of[q]
            if g is not None:
                hits[g] = hits.get(g, 0) + 1
        candidates: List[Any] = []
        overlaps: List[Any] = []
        for g, n_hits in hits.items():
            if n_hits == len(g.member_ids):
                candidates.append(g)
            elif need_overlap:
                overlaps.append(g)
        # creation order, as the scans walk the registry
        candidates.sort(key=_gid)
        overlaps.sort(key=_gid)
        return sum(hits.values()), candidates, overlaps

    def members_within(self, group: Any, pid: int,
                       point: Point) -> List[int]:
        near = set(self._neighbours(pid))
        return [m for m in group.member_ids if m in near]

    def create_group(self, point_id: int, point: Point) -> Any:
        g = self.registry.new_group([point_id])
        self._group_of[point_id] = g
        return g

    def add_member(self, group: Any, point_id: int, point: Point) -> None:
        group.member_ids.append(point_id)
        self._group_of[point_id] = group

    def remove_members(self, group: Any, point_ids: Iterable[int]) -> None:
        doomed = set(point_ids)
        for pid in doomed:
            self._group_of[pid] = None
        group.member_ids = [m for m in group.member_ids if m not in doomed]
        if not group.member_ids:
            self.registry.drop(group.gid)


_STRATEGIES = {
    "all-pairs": AllPairsStrategy,
    "allpairs": AllPairsStrategy,
    "naive": AllPairsStrategy,
    "bounds-checking": BoundsCheckingStrategy,
    "bounds": BoundsCheckingStrategy,
    "index": IndexedStrategy,
    "indexed": IndexedStrategy,
    "rtree": IndexedStrategy,
    "graph": GraphStrategy,
}

#: The strategies that place a point on arrival, hence the ones a stream
#: can run; ``graph`` groups only at ``snapshot`` / ``finalize``.
INCREMENTAL_STRATEGIES = ("all-pairs", "bounds-checking", "index")


def all_strategy_class(strategy: str) -> Type[_StrategyBase]:
    """The strategy class ``strategy`` names, under any spelling of
    ``_STRATEGIES``; its ``name`` is the canonical one the cost model
    prices."""
    try:
        return _STRATEGIES[strategy.strip().lower()]
    except KeyError:
        raise InvalidParameterError(
            f"unknown strategy {strategy!r}; expected one of "
            f"{sorted(set(_STRATEGIES))}"
        ) from None


# ----------------------------------------------------------------------
# the operator
# ----------------------------------------------------------------------
class SGBAllOperator:
    """Streaming SGB-All operator (Procedure 1).

    Feed points with :meth:`add` (or construct via
    :func:`repro.core.api.sgb_all`); :meth:`snapshot` returns the
    :class:`~repro.core.result.GroupingResult` of the prefix seen so far
    and leaves the operator open, :meth:`finalize` returns it and closes.
    Both are one label walk: FORM-NEW-GROUP's recursive re-grouping of the
    deferred set happens there, on fresh registries, never on the live
    groups.

    Under ``strategy="graph"`` the operator is a batch one: ``add`` only
    spools, and the walk first joins the spooled points into their ε-graph
    and runs the Procedure 1 pass over them (:class:`GraphStrategy`),
    before the same regroup passes.

    The operator counts its own work into :attr:`stats` (a
    :class:`~repro.obs.metrics.StreamStats`) wherever the event happens,
    with or without a bag.  A snapshot's passes count into a scratch
    struct and are dropped; ``finalize``'s count.

    Parameters
    ----------
    eps:
        Similarity threshold ``ε >= 0`` (``0`` degenerates to equality
        grouping, i.e. the standard GROUP BY).
    metric:
        ``"l2"``, ``"linf"``, or a :class:`~repro.core.distance.Metric`.
    on_overlap:
        ``"join-any"`` | ``"eliminate"`` | ``"form-new-group"``.
    strategy:
        ``"all-pairs"`` | ``"bounds-checking"`` | ``"index"`` (the paper's,
        :data:`INCREMENTAL_STRATEGIES`) | ``"graph"`` (``eps > 0``).
    tiebreak:
        JOIN-ANY arbitration: ``"random"`` (paper semantics, seeded) or
        ``"first"`` (deterministic lowest group id; used to compare
        strategies).
    use_hull:
        Enable the §6.4 convex-hull refinement for 2-D L2 (ignored for L∞).
        Disabling it falls back to exact member scans after the rectangle
        filter — still correct, benchmarked as an ablation.
    """

    def __init__(
        self,
        eps: float,
        metric: Union[str, Metric] = "l2",
        on_overlap: str = JOIN_ANY,
        strategy: str = "index",
        tiebreak: str = "random",
        seed: int = 0,
        rtree_max_entries: int = 8,
        use_hull: bool = True,
        count_distance_computations: bool = False,
        tracer: Optional[Tracer] = None,
    ):
        if eps < 0:
            raise InvalidParameterError(f"eps must be non-negative, got {eps}")
        self.eps = float(eps)
        self.metric = resolve_metric(metric)
        self.tracer = tracer
        if count_distance_computations and not hasattr(self.metric, "calls"):
            self.metric = CountingMetric(self.metric)
        self.on_overlap = normalize_overlap(on_overlap)
        if tiebreak not in ("random", "first"):
            raise InvalidParameterError(
                f"tiebreak must be 'random' or 'first', got {tiebreak!r}"
            )
        self.tiebreak = tiebreak
        self._rng = random.Random(seed)
        self._rtree_max_entries = rtree_max_entries
        self._use_hull_opt = use_hull
        self._strategy_cls = all_strategy_class(strategy)
        if self._strategy_cls is GraphStrategy and self.eps == 0:
            raise InvalidParameterError(
                "the graph strategy requires eps > 0 (its join bins "
                "points by v // eps)"
            )

        self.stats = StreamStats()
        self._points: List[Point] = []
        self._dim: Optional[int] = None
        self._deferred: List[int] = []
        self._strategy: Optional[_StrategyBase] = None
        self._finalized = False

    # ------------------------------------------------------------------
    @property
    def strategy_name(self) -> str:
        return self._strategy_cls.name

    @property
    def n_points(self) -> int:
        return len(self._points)

    @property
    def n_groups(self) -> int:
        """Live groups right now (deferred points not yet regrouped; none
        under ``graph``, which groups nothing before the walk)."""
        strat = self._strategy
        return len(strat.registry) if strat is not None else 0

    @property
    def n_deferred(self) -> int:
        """Points waiting in ``S'`` for FORM-NEW-GROUP's regroup."""
        return len(self._deferred)

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

    def _make_strategy(
        self, metric: Metric,
        adjacency: Optional[Tuple[List[int], List[int]]] = None,
    ) -> _StrategyBase:
        use_hull = (
            self._use_hull_opt
            and metric.name != "linf"
            and self._dim == 2
        )
        if self._strategy_cls is IndexedStrategy:
            return IndexedStrategy(
                self.eps, metric, use_hull, self._rtree_max_entries
            )
        if self._strategy_cls is GraphStrategy:
            assert adjacency is not None
            return GraphStrategy(self.eps, metric, use_hull, adjacency)
        return self._strategy_cls(self.eps, metric, use_hull)

    # ------------------------------------------------------------------
    def add(self, point: Sequence[float]) -> None:
        """Process one input tuple's grouping attributes."""
        if self._finalized:
            raise RuntimeError("operator already finalized")
        pt = tuple(float(v) for v in point)
        first = self._dim is None
        self._dim = checked_dim((len(pt),), self._dim)
        if first and self._strategy_cls is not GraphStrategy:
            self._strategy = self._make_strategy(self.metric)
        pid = len(self._points)
        self._points.append(pt)
        stats = self.stats
        stats.points += 1
        if self._strategy is None:
            return  # graph: spooled until the walk
        self._process_point(self._strategy, pid, self._deferred, stats,
                            self._rng)
        # The CountingMetric tally is cumulative; the struct mirrors it.
        stats.distance_computations = getattr(self.metric, "calls", 0)

    def add_many(self, points: Iterable[Sequence[float]]) -> "SGBAllOperator":
        """:meth:`add` every point; under ``graph``, which places nothing
        before the walk, the batch is spooled whole by
        :func:`~repro.core.sgb_any.intake`, as SGB-Any's is."""
        if self._finalized:
            raise RuntimeError("operator already finalized")
        with maybe_span(self.tracer, "ingest",
                        strategy=self.strategy_name,
                        on_overlap=self.on_overlap) as sp:
            n0 = len(self._points)
            if self._strategy_cls is GraphStrategy:
                pts, self._dim = intake(points, self._dim)
                self._points.extend(pts)
                self.stats.points += len(pts)
            else:
                for p in points:
                    self.add(p)
            sp.set(points=len(self._points) - n0)
        return self

    # ------------------------------------------------------------------
    def _process_point(self, strat: _StrategyBase, pid: int,
                       deferred_out: List[int], stats: StreamStats,
                       rng: random.Random) -> None:
        """One iteration of Procedure 1 for point ``pid``, counted into
        ``stats``: the live struct, or a snapshot's scratch one."""
        point = self._points[pid]
        need_overlap = self.on_overlap != JOIN_ANY
        examined, candidates, overlaps = strat.find_close_groups(
            pid, point, need_overlap)
        stats.index_probes += 1
        stats.candidates += examined

        # -- ProcessGroupingALL (Procedure 3) --------------------------
        if not candidates:
            strat.create_group(pid, point)
            stats.groups_created += 1
        elif len(candidates) == 1:
            strat.add_member(candidates[0], pid, point)
        elif self.on_overlap == JOIN_ANY:
            chosen = (
                rng.choice(candidates)
                if self.tiebreak == "random"
                else candidates[0]  # already sorted by gid
            )
            strat.add_member(chosen, pid, point)
        elif self.on_overlap == ELIMINATE_CLAUSE:
            stats.eliminated += 1
        else:  # FORM-NEW-GROUP: defer to S'
            deferred_out.append(pid)
            stats.deferred += 1

        # -- ProcessOverlap --------------------------------------------
        if need_overlap and overlaps:
            for g in overlaps:
                doomed = strat.members_within(g, pid, point)
                if not doomed:
                    continue
                if len(doomed) == len(g.member_ids):
                    stats.groups_dropped += 1
                strat.remove_members(g, doomed)
                if self.on_overlap == ELIMINATE_CLAUSE:
                    stats.eliminated += len(doomed)
                else:
                    deferred_out.extend(doomed)
                    stats.deferred += len(doomed)

    # ------------------------------------------------------------------
    def snapshot(self) -> GroupingResult:
        """The grouping of the points added so far; the operator stays open.

        Equals ``sgb_all(prefix, ...)`` with the same parameters, seed and
        order.  JOIN-ANY / ELIMINATE resolve every point on arrival, so
        this is an O(n) label read; FORM-NEW-GROUP regroups the deferred
        set on fresh registries with the uncounted metric and a scratch
        counter struct, so the live groups, the RNG and :attr:`stats` are
        as they were.  Under ``graph`` the whole walk runs here, its
        JOIN-ANY draws on a copy of the RNG.
        """
        metric = getattr(self.metric, "inner", self.metric)
        rng = random.Random()
        rng.setstate(self._rng.getstate())
        return self._label_walk(StreamStats(), metric, rng)[0]

    def finalize(self) -> GroupingResult:
        """Close the input stream and return the grouping: the
        :meth:`snapshot` walk, counted into :attr:`stats`."""
        if self._finalized:
            raise RuntimeError("operator already finalized")
        self._finalized = True
        stats = self.stats
        with maybe_span(self.tracer, "finalize",
                        points=len(self._points)) as fin:
            result, passes = self._label_walk(stats, self.metric,
                                              self._rng)
            fin.set(regroup_passes=passes)
        stats.distance_computations = getattr(self.metric, "calls", 0)
        return result

    def _label_walk(self, stats: StreamStats, metric: Metric,
                    rng: random.Random) -> Tuple[GroupingResult, int]:
        """``(grouping, regroup passes)`` of the current state.

        Labels number the live groups in creation order (under ``graph``,
        those of one pass over the spooled points), then each
        FORM-NEW-GROUP recursion level's (a fresh SGB-All pass over ``S'``
        per level, until ``S'`` is empty).  Eliminated points were never
        assigned and stay ``ELIMINATED``.

        The walk ends within ``|S'|`` passes, because no pass can defer
        all of ``S'``: its last point either joins a group (it has 0 or 1
        candidates) or is deferred with >= 2 candidate groups.  Those
        groups took points of this pass, and no later point of the pass
        exists to pull those points back out.  So each pass groups at
        least one point and ``S'`` strictly shrinks.
        """
        registries: List[GroupRegistry] = []
        pending = self._deferred
        adjacency = None
        if self._strategy is not None:
            registries.append(self._strategy.registry)
        elif self._strategy_cls is GraphStrategy:
            adjacency = self._adjacency(metric)
            strat = self._make_strategy(metric, adjacency)
            pending = self._pass(strat, range(len(self._points)), stats,
                                 rng)
            registries.append(strat.registry)
        depth = 0
        while pending:
            strat = self._make_strategy(metric, adjacency)
            # Each FORM-NEW-GROUP recursion level is its own strategy
            # phase — one span per re-grouping pass over S'.
            with maybe_span(self.tracer, "regroup", depth=depth,
                            pending=len(pending)):
                next_deferred = self._pass(strat, pending, stats, rng)
            registries.append(strat.registry)
            pending = next_deferred
            depth += 1

        labels = [ELIMINATED] * len(self._points)
        next_label = 0
        for registry in registries:
            for g in registry:  # creation (gid) order
                for pid in g.member_ids:
                    labels[pid] = next_label
                next_label += 1
        return GroupingResult(labels, self._points), depth

    def _pass(self, strat: _StrategyBase, pids: Iterable[int],
              stats: StreamStats, rng: random.Random) -> List[int]:
        """Procedure 1 over ``pids`` into ``strat``; returns its ``S'``.

        Under ``graph`` a point with no ε-neighbour has a fixed answer: no
        candidate, no overlap, no JOIN-ANY draw, so it opens a group of
        its own in arrival order without FindCloseGroups.  Its probe and
        its group are still counted, in bulk: the counters read as if it
        had been probed.
        """
        deferred: List[int] = []
        process = self._process_point
        if not isinstance(strat, GraphStrategy):
            for pid in pids:
                process(strat, pid, deferred, stats, rng)
            return deferred
        isolated = strat.isolated
        create = strat.create_group
        points = self._points
        n_isolated = 0
        for pid in pids:
            if isolated(pid):
                create(pid, points[pid])
                n_isolated += 1
            else:
                process(strat, pid, deferred, stats, rng)
        stats.index_probes += n_isolated
        stats.groups_created += n_isolated
        return deferred

    def _adjacency(self, metric: Metric) -> Tuple[List[int], List[int]]:
        """The ε-graph of the spooled points as CSR lists, from one
        self-join; a counting ``metric`` is charged by the join."""
        blocks = kernels.eps_self_join(self._points, self.eps, metric,
                                       hasattr(metric, "calls"))
        with maybe_span(self.tracer, "join",
                        points=len(self._points)) as sp:
            adjacency = kernels.csr_adjacency(len(self._points), blocks)
            sp.set(edges=len(adjacency[1]) // 2)
        return adjacency
