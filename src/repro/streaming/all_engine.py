"""Incremental SGB-All: ε-All clique groups maintained under insertion.

SGB-All is *not* order-independent in general (the overlap clauses make
the output depend on arrival order — see the order-independent-semantics
analysis of Tang et al., arXiv:1412.4303), so the guarantee this engine
gives is the strongest one available: after ingesting any prefix, a
``snapshot()`` is identical to the batch :class:`SGBAllOperator` run over
that same prefix in the same order with the same seed.  Chopping the
prefix into micro-batches cannot change the result because the engine
processes points one at a time either way.

Internally the engine drives the batch operator's own incremental
machinery — the per-group ε-All test on the MBR (the answer for L∞), the
MBR R-tree / bounds-checking filters, and the 2-D convex-hull refinement
that resolves L2 candidates exactly — and adds the two things the batch
operator lacks:

* non-destructive ``snapshot()`` (the batch operator can only
  ``finalize()`` once, destroying itself), and
* per-insert accounting into a :class:`~repro.streaming.stats.StreamStats`.

``JOIN-ANY`` and ``ELIMINATE`` resolve every point on arrival, so their
snapshots are O(n) label reads.  ``FORM-NEW-GROUP`` defers points to the
recursive re-grouping that only happens at finalize; its snapshot
deep-copies the operator state and finalizes the copy, which is O(n) space
but leaves the live stream untouched.
"""

from __future__ import annotations

import copy
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.api import check_eps, validate_point
from repro.core.distance import Metric
from repro.core.result import ELIMINATED, GroupingResult
from repro.core.sgb_all import SGBAllOperator
from repro.errors import StreamStateError
from repro.streaming.stats import StreamStats

Point = Tuple[float, ...]


class StreamingSGBAll:
    """Maintains SGB-All groups online under point insertion.

    Parameters mirror :class:`~repro.core.sgb_all.SGBAllOperator` (overlap
    clause, strategy, tiebreak/seed, hull refinement), except that ``eps``
    must be strictly positive and ``count_distances=True`` enables the
    distance-computation counter in :attr:`stats`.

    >>> eng = StreamingSGBAll(eps=1.0, tiebreak="first")
    >>> eng.extend([(0, 0), (0.5, 0), (9, 9)])
    >>> eng.snapshot().group_sizes()
    [2, 1]
    """

    def __init__(
        self,
        eps: float,
        metric: Union[str, Metric] = "l2",
        on_overlap: str = "join-any",
        strategy: str = "index",
        tiebreak: str = "random",
        seed: int = 0,
        use_hull: bool = True,
        rtree_max_entries: int = 8,
        max_recursion: Optional[int] = None,
        count_distances: bool = False,
    ):
        self.eps = check_eps(eps, require_positive=True)
        self._op = SGBAllOperator(
            eps=self.eps,
            metric=metric,
            on_overlap=on_overlap,
            strategy=strategy,
            tiebreak=tiebreak,
            seed=seed,
            use_hull=use_hull,
            rtree_max_entries=rtree_max_entries,
            max_recursion=max_recursion,
            count_distance_computations=count_distances,
        )
        self._dim: Optional[int] = None
        self._closed = False
        self.stats = StreamStats()

    # ------------------------------------------------------------------
    @property
    def metric(self) -> Metric:
        return self._op.metric

    @property
    def on_overlap(self) -> str:
        return self._op.on_overlap

    @property
    def n_points(self) -> int:
        return len(self._op._points)

    @property
    def n_groups(self) -> int:
        """Live groups right now (deferred points not yet regrouped)."""
        strat = self._op._strategy
        return len(strat.registry) if strat is not None else 0

    @property
    def n_deferred(self) -> int:
        return len(self._op._deferred)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float]) -> None:
        """Ingest one point through Procedure 1 (one FindCloseGroups probe)."""
        if self._closed:
            raise StreamStateError("streaming engine already closed by result()")
        pt, self._dim = validate_point(point, self._dim)
        op = self._op
        strat = op._strategy
        groups_before = len(strat.registry) if strat is not None else 0
        elim_before = len(op._eliminated)
        defer_before = len(op._deferred)
        op.add(pt)
        stats = self.stats
        stats.points += 1
        stats.index_probes += 1
        # Cumulative on the operator, like the CountingMetric tally below.
        stats.candidates = op.candidates_examined
        delta = len(op._strategy.registry) - groups_before
        if delta >= 0:
            stats.groups_created += delta
        else:
            # ProcessOverlap emptied at least one existing group; the new
            # point may still have opened one, but only the net is visible.
            stats.groups_dropped += -delta
        stats.eliminated += len(op._eliminated) - elim_before
        stats.deferred += len(op._deferred) - defer_before
        calls = getattr(op.metric, "calls", None)
        if calls is not None:
            stats.distance_computations = calls

    def extend(self, points: Iterable[Sequence[float]]) -> None:
        for p in points:
            self.insert(p)

    # ------------------------------------------------------------------
    def snapshot(self) -> GroupingResult:
        """Grouping over the ingested prefix, without closing the stream.

        Equals ``sgb_all(prefix, ...)`` with the same parameters, seed and
        insertion order.  JOIN-ANY / ELIMINATE read the live registry;
        FORM-NEW-GROUP finalizes a deep copy so the deferred-set recursion
        runs without disturbing the live state.
        """
        op = self._op
        if not op._points:
            return GroupingResult([], [])
        if op._deferred:
            return copy.deepcopy(op).finalize()
        labels = [ELIMINATED] * len(op._points)
        next_label = 0
        assert op._strategy is not None
        for g in sorted(op._strategy.registry, key=lambda g: g.gid):
            for pid in g.member_ids:
                labels[pid] = next_label
            next_label += 1
        return GroupingResult(labels, op._points)

    def result(self) -> GroupingResult:
        """Close the stream and return the final grouping.

        Runs the real :meth:`SGBAllOperator.finalize` (including the
        FORM-NEW-GROUP recursion) on the live state.
        """
        if self._closed:
            raise StreamStateError("streaming engine already closed by result()")
        self._closed = True
        return self._op.finalize()

    def __repr__(self) -> str:
        return (
            f"StreamingSGBAll(eps={self.eps}, metric={self.metric.name!r}, "
            f"on_overlap={self.on_overlap!r}, n_points={self.n_points}, "
            f"n_groups={self.n_groups})"
        )
