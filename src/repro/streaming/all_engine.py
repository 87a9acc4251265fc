"""Incremental SGB-All: ε-All clique groups maintained under insertion.

SGB-All's answer depends on arrival order under every overlap clause
(Tang et al., arXiv:1412.4303), so the guarantee this engine gives is the
strongest one available: after any prefix, ``snapshot()`` is the batch
:class:`SGBAllOperator` run over that prefix in the same order with the
same seed.  It holds by construction: the batch operator is incremental
(one Procedure 1 step per ``add``), counts its own work and answers
:meth:`~repro.core.sgb_all.SGBAllOperator.snapshot` without closing, so
this engine is that operator plus what a stream needs on top — ε > 0,
finite-coordinate validation, and a closed state with a typed error.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.core.api import check_eps, validate_point
from repro.core.distance import Metric
from repro.core.result import GroupingResult
from repro.core.sgb_all import (
    INCREMENTAL_STRATEGIES,
    SGBAllOperator,
    all_strategy_class,
)
from repro.errors import InvalidParameterError, StreamStateError


class StreamingSGBAll:
    """Maintains SGB-All groups online under point insertion.

    Parameters mirror :class:`~repro.core.sgb_all.SGBAllOperator`, except
    that ``eps`` must be strictly positive, ``strategy`` must be one that
    places a point on arrival (not the batch-only ``"graph"``), and
    ``count_distances=True`` enables the distance-computation counter in
    :attr:`stats` — the operator's own
    :class:`~repro.obs.metrics.StreamStats`, so after any prefix, and
    after :meth:`result`, they are the batch operator's.

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
        if all_strategy_class(strategy).name not in INCREMENTAL_STRATEGIES:
            raise InvalidParameterError(
                f"strategy {strategy!r} groups only in batch; a stream "
                f"runs one of {', '.join(INCREMENTAL_STRATEGIES)}"
            )
        self._op = SGBAllOperator(
            eps=self.eps, metric=metric, on_overlap=on_overlap,
            strategy=strategy, tiebreak=tiebreak, seed=seed,
            use_hull=use_hull, rtree_max_entries=rtree_max_entries,
            max_recursion=max_recursion,
            count_distance_computations=count_distances,
        )
        self.metric = self._op.metric
        self.on_overlap = self._op.on_overlap
        self.stats = self._op.stats
        self._dim: Optional[int] = None
        self.closed = False

    @property
    def n_points(self) -> int:
        return self._op.n_points

    @property
    def n_groups(self) -> int:
        """Live groups right now (deferred points not yet regrouped)."""
        return self._op.n_groups

    @property
    def n_deferred(self) -> int:
        return self._op.n_deferred

    def insert(self, point: Sequence[float]) -> None:
        """Ingest one point through Procedure 1 (one FindCloseGroups probe)."""
        if self.closed:
            raise StreamStateError("streaming engine already closed by result()")
        pt, self._dim = validate_point(point, self._dim)
        self._op.add(pt)

    def extend(self, points: Iterable[Sequence[float]]) -> None:
        for p in points:
            self.insert(p)

    def snapshot(self) -> GroupingResult:
        """Grouping over the ingested prefix, without closing the stream:
        ``sgb_all(prefix, ...)`` with the same parameters, seed and order.
        FORM-NEW-GROUP's regroup of the deferred set runs here and is not
        counted in :attr:`stats`; :meth:`result`'s is."""
        return self._op.snapshot()

    def result(self) -> GroupingResult:
        """Close the stream: ``SGBAllOperator.finalize`` on the live state."""
        if self.closed:
            raise StreamStateError("streaming engine already closed by result()")
        self.closed = True
        return self._op.finalize()

    def __repr__(self) -> str:
        return (
            f"StreamingSGBAll(eps={self.eps}, metric={self.metric.name!r}, "
            f"on_overlap={self.on_overlap!r}, n_points={self.n_points}, "
            f"n_groups={self.n_groups})"
        )
