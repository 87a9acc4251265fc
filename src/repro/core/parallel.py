"""Partition-parallel SGB execution (perf layer, see docs/architecture.md).

A similarity GROUP BY with equality partition keys is embarrassingly
parallel across partitions: each partition is grouped by an independent
operator instance, and with ``tiebreak='random'`` every partition already
draws from its own deterministic RNG stream (:func:`partition_seed`, the
blake2b mix introduced for decorrelation).  Nothing about the grouping
depends on *where* a partition runs, so dispatching partitions to a
``ProcessPoolExecutor`` is bit-identical to the serial loop by
construction — the only extra work is folding each worker's observability
payload back into the parent: :class:`~repro.obs.metrics.MetricBag`
counters/histograms so ``EXPLAIN ANALYZE`` totals stay truthful,
and (when tracing) the worker's span records, which arrive already
parented onto the dispatching span via the propagated trace context
(``(trace_id, parent_span_id)`` — see :meth:`repro.obs.trace.Tracer.for_context`),
so the fold is a plain append with exact parent ids.

The ``parallel=`` knob accepted by :class:`~repro.engine.database.Database`
and the :func:`~repro.core.api.sgb_all` / :func:`~repro.core.api.sgb_any`
entry points is normalized by :func:`resolve_workers`: ``0``/``1`` mean
serial (the default — process startup outweighs the win for small inputs),
``n > 1`` means a pool of ``n`` workers, and any negative value means "one
worker per CPU".
"""

from __future__ import annotations

import hashlib
import os
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.explain import UNBOUND, QueryContext

Point = Tuple[float, ...]

#: Propagated trace context: ``(trace_id, parent_span_id)``.
TraceContext = Tuple[str, str]

#: Task tuple consumed by the worker: ``(index, mode, backend, points,
#: operator kwargs, collect metrics?, trace context or None)``.
PartitionTask = Tuple[int, str, str, Sequence[Point], dict, bool,
                      Optional[TraceContext]]

#: Observability payload returned per task (empty when uninstrumented):
#: ``counters`` fold into the parent MetricBag, ``histograms`` maps
#: name -> LatencyHistogram.state(), ``spans`` is a list of exported
#: SpanRecord dicts ready for ``Tracer.ingest``.
ObsPayload = Dict[str, Any]


def partition_seed(base_seed: int, pkey: tuple) -> int:
    """Deterministic per-partition RNG seed.

    Every partition used to receive the base seed verbatim, so with
    ``tiebreak='random'`` all partitions replayed the *same* random stream
    and made correlated JOIN-ANY choices.  Mixing in a stable digest of the
    partition key decorrelates partitions while keeping full-query results
    reproducible run-to-run and — crucially for the parallel executor —
    independent of which process handles which partition (``hash()`` is
    salted per process and therefore unusable here).
    """
    if not pkey:
        return base_seed
    digest = hashlib.blake2b(
        repr(pkey).encode("utf-8"), digest_size=8
    ).digest()
    return base_seed ^ int.from_bytes(digest, "big")


def resolve_workers(parallel: Optional[int]) -> int:
    """Normalize a ``parallel=`` knob to a positive worker count."""
    if parallel is None:
        return 1
    n = int(parallel)
    if n < 0:
        return max(1, os.cpu_count() or 1)
    return max(1, n)


def group_partition(index: int, mode: str, points: Sequence[Point],
                    op_kwargs: dict, bag=None, tracer=None) -> List[int]:
    """Group one partition in this process and return its labels.

    The single per-partition path: the SQL executor's serial loop, the
    array API's serial loop and the pool worker (:func:`run_partition`)
    all come through here, so they cannot drift — same operator, same
    ``partition`` span, same counters.  ``bag`` / ``tracer`` are the
    *caller's* collectors (a :class:`~repro.obs.metrics.MetricBag` and a
    :class:`~repro.obs.trace.Tracer`), written to directly; either may be
    None.

    Imports are local so worker processes spawned before the operator
    modules were touched stay cheap to start.
    """
    if mode == "all":
        from repro.core.sgb_all import SGBAllOperator as operator_cls
    elif mode == "any":
        from repro.core.sgb_any import SGBAnyOperator as operator_cls
    else:
        raise ValueError(f"unknown SGB mode {mode!r}")
    from repro.obs.trace import maybe_span

    with maybe_span(tracer, "partition", partition=index, points=len(points),
                    mode=mode, pid=os.getpid()):
        operator = operator_cls(metrics=bag, tracer=tracer, **op_kwargs)
        operator.add_many(points)
        return operator.finalize().labels


def run_partition(task: PartitionTask):
    """Pool-side wrapper (module-level so it pickles): build this task's
    collectors, call :func:`group_partition`, pack what they collected.

    Returns ``(index, labels, payload)``; the payload dict is empty when
    the parent attached neither a metric bag nor a tracer, so workers
    skip the CountingMetric wrap and span bookkeeping exactly like the
    uninstrumented serial path.
    """
    index, mode, backend, points, op_kwargs, want_metrics, trace_ctx = task
    from repro import kernels
    from repro.obs.metrics import MetricBag

    if backend != kernels.active_backend():
        # A spawned worker re-selects the backend from the environment;
        # pin it to the parent's choice so results and counters agree.
        kernels.set_backend(backend)
    bag = MetricBag() if want_metrics else None
    tracer = None
    if trace_ctx is not None:
        from repro.obs.trace import Tracer

        trace_id, parent_span_id = trace_ctx
        # The tag (span-id prefix) must be unique per *task*, not per
        # process — a pool worker handles many tasks and restarts its
        # local counter each time.
        tracer = Tracer.for_context(
            trace_id, parent_span_id, tag=f"{parent_span_id}.p{index}."
        )
    labels = group_partition(index, mode, points, op_kwargs, bag, tracer)
    payload: ObsPayload = {}
    if bag is not None:
        payload["counters"] = bag.counters
        if bag.histograms:
            payload["histograms"] = {
                name: hist.state() for name, hist in bag.histograms.items()
            }
    if tracer is not None:
        payload["spans"] = tracer.export_records()
    return index, labels, payload


def run_partitions(
    tasks: Sequence[Tuple[str, Sequence[Point], dict]],
    workers: int,
    backend: str,
    want_metrics: bool = False,
    trace_context: Optional[TraceContext] = None,
    cancel=None,
) -> List[Tuple[List[int], ObsPayload]]:
    """Group every ``(mode, points, operator kwargs)`` task on a pool of
    ``workers`` processes and return ``(labels, obs payload)`` per task in
    input order.

    This is the pool half of :func:`label_partitions`; the serial half
    loops over :func:`group_partition` with the caller's own collectors.
    Both run that one function per partition, so a propagated
    ``trace_context`` gives the pool the serial span tree (worker spans
    parent onto ``trace_context[1]``).

    ``cancel`` is an optional :class:`~repro.core.cancel.CancelToken`.
    The token itself never crosses the process boundary — dispatch checks
    it between arriving results: a tripped token cancels every
    not-yet-started future, lets in-flight partitions run to completion
    (a worker cannot be interrupted mid-group), and raises the token's
    typed error.
    """
    from concurrent.futures import ProcessPoolExecutor

    payload: List[PartitionTask] = [
        (i, mode, backend, points, op_kwargs, want_metrics, trace_context)
        for i, (mode, points, op_kwargs) in enumerate(tasks)
    ]
    results: List[Optional[Tuple[List[int], ObsPayload]]] = [None] * len(payload)
    if cancel is not None:
        cancel.check()
    with ProcessPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = [pool.submit(run_partition, task) for task in payload]
        try:
            for future in futures:
                if cancel is not None:
                    cancel.check()
                index, labels, obs = future.result()
                results[index] = (labels, obs)
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    return results  # type: ignore[return-value]


def fold_obs_payload(payload: ObsPayload, bag=None, tracer=None) -> None:
    """Fold one worker observability payload into parent collectors.

    ``bag`` receives counters and (merged) histograms; ``tracer`` ingests
    the worker's span records.  Either may be None.
    """
    if bag is not None:
        for name, value in payload.get("counters", {}).items():
            bag.incr(name, value)
        if payload.get("histograms"):
            from repro.obs.hist import LatencyHistogram

            for name, state in payload["histograms"].items():
                bag.histogram(name).merge(LatencyHistogram.from_state(state))
    if tracer is not None and payload.get("spans"):
        tracer.ingest(payload["spans"])


def label_partitions(
    tasks: Sequence[Tuple[str, Sequence[Point], dict]],
    workers: int,
    ctx: QueryContext = UNBOUND,
    bag=None,
) -> Iterator[List[int]]:
    """Labels of every ``(mode, points, operator kwargs)`` task, in order.

    The one serial-or-pool decision, shared by the SQL executor and the
    array API.  ``ctx`` is the statement's
    :class:`~repro.obs.explain.QueryContext` (cancel token, tracer);
    ``bag`` is the calling node's counter bag — node-scoped where the
    context is statement-scoped — or None.
    ``workers <= 1`` (or a single task) groups lazily in this process —
    one :func:`group_partition` per ``next()``, writing into ``bag`` and
    the context's tracer, with the token checked at each partition
    boundary (grouping one partition is the longest stretch with nothing
    else to check at).  Otherwise every task goes to
    :func:`run_partitions` under a ``parallel_dispatch`` span and each
    worker's payload is folded back into ``bag`` / the tracer before the
    first labels are handed out, so counters and span trees equal the
    serial ones (modulo pids and the dispatch span).
    """
    tracer = ctx.tracer
    if workers <= 1 or len(tasks) <= 1:
        for index, (mode, points, op_kwargs) in enumerate(tasks):
            ctx.check()
            yield group_partition(index, mode, points, op_kwargs, bag, tracer)
        return
    from repro import kernels
    from repro.obs.trace import maybe_span

    with maybe_span(tracer, "parallel_dispatch", workers=workers,
                    partitions=len(tasks)):
        results = run_partitions(
            tasks,
            workers,
            backend=kernels.active_backend(),
            want_metrics=bag is not None,
            trace_context=tracer.context() if tracer is not None else None,
            cancel=ctx.cancel,
        )
        for _labels, obs_payload in results:
            ctx.check()
            fold_obs_payload(obs_payload, bag=bag, tracer=tracer)
    for labels, _obs_payload in results:
        yield labels
