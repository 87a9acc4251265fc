"""PARTITION BY execution: one operator per partition, one at a time.

A similarity GROUP BY with equality partition keys groups every partition
with an independent operator instance, and with ``tiebreak='random'``
every partition draws from its own deterministic RNG stream
(:func:`partition_seed`).  The SQL executor and the array API both group
through :func:`label_partitions`, one :func:`group_partition` per
partition, so they cannot drift: same operator, same ``partition`` span,
same counters.  Both pick each partition's strategy by
:func:`resolve_strategy`, once its points are known.

There is no process pool: on every measured cell a pool of two was at
most 1.24x the serial ``graph`` / ``grid`` run (docs/architecture.md,
"No process pool", has the table and the bar a pool would have to clear
to come back).
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.sgb_all import SGBAllOperator
from repro.core.sgb_any import SGBAnyOperator
from repro.obs.explain import UNBOUND, QueryContext
from repro.obs.trace import maybe_span

Point = Tuple[float, ...]


def partition_seed(base_seed: int, pkey: tuple) -> int:
    """Deterministic per-partition RNG seed.

    Every partition used to receive the base seed verbatim, so with
    ``tiebreak='random'`` all partitions replayed the *same* random stream
    and made correlated JOIN-ANY choices.  Mixing in a stable digest of the
    partition key decorrelates partitions while keeping full-query results
    reproducible run-to-run (``hash()`` is salted per process and
    therefore unusable here).
    """
    if not pkey:
        return base_seed
    digest = hashlib.blake2b(
        repr(pkey).encode("utf-8"), digest_size=8
    ).digest()
    return base_seed ^ int.from_bytes(digest, "big")


def resolve_strategy(mode: str, points: Sequence[Point], op_kwargs: dict,
                     eps_fraction: Optional[float] = None) -> dict:
    """``op_kwargs`` with an ``"auto"`` strategy replaced by the chooser's
    pick for these points.

    The one strategy rule: :func:`repro.stats.chooser.choose_strategy` at
    the partition's exact n.  The expected ε-neighbour count is
    ``eps_fraction · n`` when the caller knows the fraction of points
    within ε of a point (SQL's ANALYZE histograms), else unknown.  A
    concrete strategy name is returned as given.
    """
    if op_kwargs["strategy"] != "auto":
        return op_kwargs
    # Local: repro.stats imports the engine, which imports this module.
    from repro.stats.chooser import choose_strategy

    n = len(points)
    k = None if eps_fraction is None else eps_fraction * n
    strategy = choose_strategy(mode, n, k, op_kwargs["eps"])[0]
    return dict(op_kwargs, strategy=strategy)


def group_partition(index: int, mode: str, points: Sequence[Point],
                    op_kwargs: dict, bag=None, tracer=None) -> List[int]:
    """Group one partition and return its labels.

    ``bag`` / ``tracer`` are the caller's collectors (the node's counter
    bag and a :class:`~repro.obs.trace.Tracer`); either may be None.  A
    bag switches distance counting on and receives the operator's
    ``stats`` once it has finalized; the tracer gets the operator's
    spans.
    """
    if mode == "all":
        operator_cls = SGBAllOperator
    elif mode == "any":
        operator_cls = SGBAnyOperator
    else:
        raise ValueError(f"unknown SGB mode {mode!r}")
    with maybe_span(tracer, "partition", partition=index, points=len(points),
                    mode=mode):
        operator = operator_cls(count_distance_computations=bag is not None,
                                tracer=tracer, **op_kwargs)
        operator.add_many(points)
        labels = operator.finalize().labels
        if bag is not None:
            bag.add_stats(operator.stats)
        return labels


def label_partitions(
    tasks: Sequence[Tuple[str, Sequence[Point], dict]],
    ctx: QueryContext = UNBOUND,
    bag=None,
) -> Iterator[List[int]]:
    """Labels of every ``(mode, points, operator kwargs)`` task, in order.

    Lazy: one :func:`group_partition` per ``next()``, so partition ``i``
    can be folded before partition ``i + 1`` is grouped.  ``ctx`` is the
    statement's :class:`~repro.obs.explain.QueryContext` (cancel token,
    tracer); ``bag`` is the calling node's counter bag — node-scoped
    where the context is statement-scoped — or None.  The token is
    checked at each partition boundary: grouping one partition is the
    longest stretch with nothing else to check at.
    """
    for index, (mode, points, op_kwargs) in enumerate(tasks):
        ctx.check()
        yield group_partition(index, mode, points, op_kwargs, bag, ctx.tracer)
