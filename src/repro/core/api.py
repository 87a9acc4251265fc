"""High-level array API for the SGB operators.

These are the entry points a data-scientist user calls directly on point
collections; the SQL engine's SGB executor node is built on the same
operator classes.  The functions here also own input validation: a NaN or
infinite coordinate compares false with everything, so letting one reach a
grid cell or R-tree rectangle silently corrupts the index — we reject it
at the door with a typed error instead.

>>> from repro import sgb_any
>>> res = sgb_any([(1, 1), (1.5, 1.2), (9, 9)], eps=1.0)
>>> res.n_groups
2
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.distance import Metric
from repro.core.parallel import (
    label_partitions as _label_partitions,
    partition_seed as _partition_seed,
    resolve_strategy as _resolve_strategy,
)
from repro.core.result import GroupingResult
from repro.core.sgb_all import (
    INCREMENTAL_STRATEGIES,
    SGBAllOperator,
    all_strategy_class,
)
from repro.core.sgb_any import SGBAnyOperator
from repro.errors import (
    DimensionMismatchError,
    InvalidCoordinateError,
    InvalidParameterError,
)

Point = Tuple[float, ...]


# ----------------------------------------------------------------------
# input validation
# ----------------------------------------------------------------------
def check_eps(eps: float, require_positive: bool = False) -> float:
    """Validate a similarity threshold and return it as a float.

    ``eps`` must be a finite number and non-negative.  The batch operators
    accept ``eps == 0`` (the equality-grouping degeneracy of plain GROUP
    BY); callers whose index structures are sized by ε — the streaming
    engines and the grid strategy — pass ``require_positive=True``.
    """
    try:
        value = float(eps)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"eps must be a number, got {eps!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise InvalidParameterError(f"eps must be finite, got {eps!r}")
    if value < 0:
        raise InvalidParameterError(f"eps must be non-negative, got {eps!r}")
    if require_positive and value == 0:
        raise InvalidParameterError(
            "eps must be strictly positive for this operation"
        )
    return value


def validate_point(
    point: Sequence[float], dim: Optional[int]
) -> Tuple[Point, int]:
    """Coerce one point to a float tuple, enforcing finiteness and ``dim``.

    Returns ``(tuple, dim)`` where ``dim`` is established from the first
    point.  Raises :class:`InvalidCoordinateError` for NaN/±inf
    coordinates, :class:`DimensionMismatchError` for mixed dimensionality,
    and :class:`InvalidParameterError` for non-numeric values or empty
    points.
    """
    try:
        pt = tuple(float(v) for v in point)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"point coordinates must be numeric, got {point!r}"
        ) from None
    for v in pt:
        if math.isnan(v) or math.isinf(v):
            raise InvalidCoordinateError(
                f"point {point!r} has a non-finite coordinate"
            )
    if dim is None:
        dim = len(pt)
        if dim < 1:
            raise InvalidParameterError("points must have >= 1 dimension")
    elif len(pt) != dim:
        raise DimensionMismatchError(
            f"point dimension {len(pt)} != {dim}"
        )
    return pt, dim


def validated_points(
    points: Iterable[Sequence[float]],
) -> Iterator[Point]:
    """Lazily validate a point stream (finite coordinates, uniform dim)."""
    dim: Optional[int] = None
    for p in points:
        pt, dim = validate_point(p, dim)
        yield pt


# ----------------------------------------------------------------------
# partitioned execution
# ----------------------------------------------------------------------
def _run_partitioned(
    mode: str,
    pts: List[Point],
    partitions: Iterable,
    op_kwargs: dict,
    base_seed: Optional[int] = None,
) -> GroupingResult:
    """Group each partition of ``pts`` independently.

    ``partitions`` assigns every point a hashable partition key; points
    never group across keys (the array-API analogue of SQL PARTITION BY).
    Each partition resolves an ``"auto"`` strategy for its own points.
    With ``base_seed`` set (SGB-All), each partition draws from its own
    blake2b-derived RNG stream.  Global labels number groups in order of
    first appearance of each partition, each partition's groups keeping
    their local order; ``-1`` (eliminated) passes through.
    """
    keys = list(partitions)
    if len(keys) != len(pts):
        raise InvalidParameterError(
            f"partitions has {len(keys)} entries for {len(pts)} points"
        )
    buckets: dict = {}  # key -> original row indices
    for index, key in enumerate(keys):
        try:
            buckets.setdefault(key, []).append(index)
        except TypeError:
            raise InvalidParameterError(
                f"partition key {key!r} at index {index} is not hashable"
            ) from None
    tasks = []
    for key, indices in buckets.items():
        kwargs = dict(op_kwargs)
        if base_seed is not None:
            kwargs["seed"] = _partition_seed(base_seed, (key,))
        part = [pts[i] for i in indices]
        tasks.append((mode, part, _resolve_strategy(mode, part, kwargs)))
    labels: List[int] = [0] * len(pts)
    offset = 0
    for indices, part_labels in zip(buckets.values(),
                                    _label_partitions(tasks)):
        local_max = -1
        for index, label in zip(indices, part_labels):
            labels[index] = label + offset if label >= 0 else -1
            if label > local_max:
                local_max = label
        offset += local_max + 1
    return GroupingResult(labels, pts)


# ----------------------------------------------------------------------
# batch entry points
# ----------------------------------------------------------------------
def sgb_all(
    points: Iterable[Sequence[float]],
    eps: float,
    metric: Union[str, Metric] = "l2",
    on_overlap: str = "join-any",
    strategy: str = "auto",
    tiebreak: str = "random",
    seed: int = 0,
    use_hull: bool = True,
    rtree_max_entries: int = 8,
    partitions: Optional[Iterable] = None,
) -> GroupingResult:
    """Group ``points`` under the distance-to-all (clique) semantics.

    Parameters mirror :class:`~repro.core.sgb_all.SGBAllOperator`; see the
    paper's Section 6 for the algorithmics.  The result assigns every input
    point a group label (or ``-1`` when dropped by ``on_overlap="eliminate"``).

    ``strategy="auto"`` (the default) lets :mod:`repro.stats.chooser`
    pick from the number of points and ``eps``, per partition, by the
    rule SQL uses (:func:`repro.core.parallel.resolve_strategy`); a
    strategy name always wins.  Every strategy gives the same labels.

    ``partitions`` (one hashable key per point) confines grouping to
    within each partition.  Each partition grouping is seeded from
    ``seed`` and a digest of its key.
    """
    eps = check_eps(eps)
    pts = list(validated_points(points))
    op_kwargs = dict(
        eps=eps,
        metric=metric,
        on_overlap=on_overlap,
        strategy=strategy,
        tiebreak=tiebreak,
        seed=seed,
        use_hull=use_hull,
        rtree_max_entries=rtree_max_entries,
    )
    if partitions is not None:
        return _run_partitioned("all", pts, partitions, op_kwargs,
                                base_seed=seed)
    return SGBAllOperator(
        **_resolve_strategy("all", pts, op_kwargs)).add_many(pts).finalize()


def sgb_any(
    points: Iterable[Sequence[float]],
    eps: float,
    metric: Union[str, Metric] = "l2",
    strategy: str = "auto",
    rtree_max_entries: int = 16,
    partitions: Optional[Iterable] = None,
) -> GroupingResult:
    """Group ``points`` under the distance-to-any (connectivity) semantics.

    Output groups are the connected components of the ε-neighbourhood graph
    (paper Section 7); the result is independent of input order.

    ``strategy`` and ``partitions`` behave as in :func:`sgb_all`: one
    hashable key per point confines components to a partition.
    """
    eps = check_eps(eps)
    pts = list(validated_points(points))
    op_kwargs = dict(
        eps=eps,
        metric=metric,
        strategy=strategy,
        rtree_max_entries=rtree_max_entries,
    )
    if partitions is not None:
        return _run_partitioned("any", pts, partitions, op_kwargs)
    return SGBAnyOperator(
        **_resolve_strategy("any", pts, op_kwargs)).add_many(pts).finalize()


# ----------------------------------------------------------------------
# streaming entry point
# ----------------------------------------------------------------------
def sgb_stream(
    mode: str = "any",
    *,
    eps: float,
    metric: Union[str, Metric] = "l2",
    batch_size: int = 64,
    points: Optional[Iterable[Sequence[float]]] = None,
    **engine_options,
):
    """Open an incremental SGB stream and return its handle.

    The one place a stream is built.  The handle
    (:class:`~repro.streaming.micro_batch.MicroBatcher`) validates each
    row as it is handed over and exposes ``insert`` / ``extend`` /
    ``snapshot`` / ``result``, the engine's cumulative
    :class:`~repro.obs.metrics.StreamStats` and the engine itself as
    ``engine``.  ``mode="any"`` maintains connected ε-components
    (:class:`~repro.streaming.any_engine.StreamingSGBAny`;
    order-independent: every snapshot equals the batch operator on the
    ingested prefix); ``mode="all"`` runs
    :class:`~repro.core.sgb_all.SGBAllOperator` itself, with one of its
    :data:`~repro.core.sgb_all.INCREMENTAL_STRATEGIES` (a snapshot equals
    the batch operator run on the same prefix in the same order and seed).
    ``eps`` must be strictly positive.

    Extra keyword arguments are the operators' own (``strategy=``,
    ``rtree_max_entries=``, ``on_overlap=``, ``tiebreak=``, ``seed=``,
    ...).  The engine counts its work into ``stats``, similarity-predicate
    evaluations (``distance_computations``) included.  When ``points`` is
    given the rows are ingested immediately.

    >>> stream = sgb_stream("any", eps=1.0, batch_size=2)
    >>> stream.extend([(0, 0), (0.5, 0), (9, 9)])
    >>> stream.snapshot().group_sizes()
    [2, 1]
    >>> clique = sgb_stream("all", eps=1.0, tiebreak="first")
    >>> clique.extend([(0, 0), (0.5, 0), (9, 9)])
    >>> clique.result().group_sizes()
    [2, 1]
    """
    from repro.streaming.any_engine import StreamingSGBAny
    from repro.streaming.micro_batch import MicroBatcher

    if "tracer" in engine_options:
        raise TypeError("a stream's tracer belongs to the returned handle, "
                        "not to sgb_stream()")
    eps = check_eps(eps, require_positive=True)
    key = mode.strip().lower()
    if key == "any":
        engine = StreamingSGBAny(eps=eps, metric=metric, **engine_options)
    elif key == "all":
        strategy = engine_options.get("strategy", "index")
        if all_strategy_class(strategy).name not in INCREMENTAL_STRATEGIES:
            raise InvalidParameterError(
                f"strategy {strategy!r} groups only in batch; a stream "
                f"runs one of {', '.join(INCREMENTAL_STRATEGIES)}"
            )
        engine = SGBAllOperator(eps=eps, metric=metric, **engine_options)
    else:
        raise InvalidParameterError(
            f"unknown streaming mode {mode!r}; expected 'any' or 'all'"
        )
    batcher = MicroBatcher(engine, batch_size=batch_size)
    if points is not None:
        batcher.extend(points)
    return batcher
