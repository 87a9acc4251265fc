"""Bounded worker pool with FIFO admission control.

The event loop must never run engine code (a 200 ms SGB aggregation
would freeze every session's I/O), so execution happens on a small pool
of daemon threads fed by a bounded :class:`queue.Queue`.  The bound *is*
the admission policy: when ``queue_depth`` requests are already waiting,
a new submit fails immediately with
:class:`~repro.errors.ServiceOverloadedError` instead of growing an
unbounded backlog — the client sees a typed, retryable error while the
server stays responsive (paper §7 frames SGB as an operator inside a
multi-user DBMS; load shedding is what keeps the multi-user part true).

Deadlines are enforced cooperatively: each queued item carries its
:class:`~repro.core.cancel.CancelToken`, the worker re-checks it after
the queue wait (a request that spent its whole deadline queued fails
*before* touching the engine), and the engine checks it where rows
enter the plan and where they multiply while executing (see
:mod:`repro.core.cancel`).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional

from repro.core.cancel import CancelToken
from repro.errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.obs.metrics import MetricBag


class _WorkItem:
    __slots__ = ("fn", "token", "label", "future", "enqueued_at")

    def __init__(self, fn: Callable[[], Any], token: Optional[CancelToken],
                 label: str, future: "Future[Any]", enqueued_at: float):
        self.fn = fn
        self.token = token
        self.label = label
        self.future = future
        self.enqueued_at = enqueued_at


class QueryScheduler:
    """FIFO admission queue in front of ``workers`` daemon threads.

    Observability rides along: every outcome increments a counter in the
    (caller-supplied or owned) :class:`~repro.obs.metrics.MetricBag`, and
    queue-wait / execution latencies land in its
    ``service_queue_wait_latency`` / ``service_exec_latency`` histograms.
    The bag is mutated under the scheduler's own lock so worker threads
    never race the ``/metrics`` snapshot.
    """

    def __init__(self, workers: int = 2, queue_depth: int = 32,
                 metrics: Optional[MetricBag] = None):
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ServiceError(f"queue_depth must be >= 1, got {queue_depth}")
        self.metrics = metrics if metrics is not None else MetricBag()
        self._metrics_lock = threading.Lock()
        self._queue: "queue.Queue[Optional[_WorkItem]]" = queue.Queue(
            maxsize=queue_depth
        )
        self._inflight = 0
        self._shutdown = False
        self._state_lock = threading.Lock()
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"sgb-svc-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()

    # -- introspection -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker (gauge)."""
        return self._queue.qsize()

    @property
    def inflight(self) -> int:
        """Requests currently executing on a worker (gauge)."""
        with self._state_lock:
            return self._inflight

    def incr_metric(self, name: str) -> None:
        """Thread-safe counter bump on the scheduler's bag.

        Public because the server shares this bag for its session-level
        counters — one lock must guard every mutation of it.
        """
        with self._metrics_lock:
            self.metrics.incr(name)

    def observe_metric(self, name: str, seconds: float) -> None:
        """Thread-safe histogram observation on the scheduler's bag."""
        with self._metrics_lock:
            self.metrics.observe(name, seconds)

    def metrics_view(self) -> MetricBag:
        """A merged copy of the bag, safe to read outside the lock."""
        with self._metrics_lock:
            return MetricBag().merge(self.metrics)

    # -- submission --------------------------------------------------------
    def submit(self, fn: Callable[[], Any],
               token: Optional[CancelToken] = None,
               label: str = "") -> "Future[Any]":
        """Queue ``fn`` for execution; never blocks.

        Raises :class:`~repro.errors.ServiceOverloadedError` when the
        admission queue is full, and :class:`~repro.errors.ServiceError`
        after :meth:`shutdown`.
        """
        with self._state_lock:
            if self._shutdown:
                raise ServiceError("scheduler is shut down")
        future: "Future[Any]" = Future()
        item = _WorkItem(fn, token, label, future, time.monotonic())
        try:
            self._queue.put_nowait(item)
        except queue.Full:
            self.incr_metric("service_rejected")
            raise ServiceOverloadedError(
                f"admission queue full ({self._queue.maxsize} queued); "
                f"retry later"
            ) from None
        self.incr_metric("service_admitted")
        return future

    # -- workers -----------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:  # shutdown sentinel
                self._queue.task_done()
                return
            try:
                self._run_item(item)
            finally:
                self._queue.task_done()

    def _run_item(self, item: _WorkItem) -> None:
        self.observe_metric(
            "service_queue_wait_latency", time.monotonic() - item.enqueued_at
        )
        if not item.future.set_running_or_notify_cancel():
            # Future.cancel() won the race while the item was queued.
            self.incr_metric("service_cancelled")
            return
        with self._state_lock:
            self._inflight += 1
        started = time.monotonic()
        result: Any = None
        failure: Optional[BaseException] = None
        try:
            if item.token is not None:
                # A request can burn its whole deadline in the queue;
                # fail it here rather than starting doomed engine work.
                item.token.check()
            result = item.fn()
        except BaseException as exc:
            if isinstance(exc, QueryTimeoutError):
                self.incr_metric("service_timeouts")
            elif isinstance(exc, QueryCancelledError):
                self.incr_metric("service_cancelled")
            else:
                self.incr_metric("service_errors")
            failure = exc
        else:
            self.incr_metric("service_completed")
        finally:
            self.observe_metric(
                "service_exec_latency", time.monotonic() - started
            )
            with self._state_lock:
                self._inflight -= 1
        # Resolve the future only after all bookkeeping: anyone who
        # observes the outcome (and then scrapes /metrics) sees the
        # counters and the inflight gauge already settled.
        if failure is not None:
            item.future.set_exception(failure)
        else:
            item.future.set_result(result)

    # -- lifecycle ---------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; optionally join the workers.

        Already-queued items still run (their sessions are owed
        responses); only *new* submits are refused.
        """
        with self._state_lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._workers:
            self._queue.put(None)  # one sentinel per worker
        if wait:
            for t in self._workers:
                t.join()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.shutdown(wait=True)
