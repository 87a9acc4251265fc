"""Hierarchical execution tracing (query → plan node → phase → partition).

Where :mod:`repro.obs.metrics` answers "how much, in total" and
:mod:`repro.obs.hist` answers "how is it distributed", this module answers
"*when*, and inside *what*": a :class:`Tracer` produces a tree of timed
spans per query — the same shape of information PostgreSQL operators get
from ``EXPLAIN ANALYZE`` nesting, but preserved as an artifact that can be
inspected offline.

Design points:

* **Exact parenting.**  Every finished span is a :class:`SpanRecord` with
  a ``trace_id``, its own ``span_id``, and its parent's ``span_id`` (empty
  for roots).  Ids are strings minted from per-tracer
  ``itertools.count`` counters, so they stay unique across threads.
* **One span stack per thread.**  Concurrent statements (SELECTs share
  the database's statement lock) each nest their spans on their own
  thread's stack, so a span's parent and trace are always those of the
  statement that opened it.
* **Ring-buffer sink.**  Finished spans land in a bounded deque; when the
  buffer is full the *oldest* spans are dropped (and counted in
  ``dropped``), so a long-lived traced Database has bounded memory.
* **Manufactured spans.**  :meth:`Tracer.ingest` appends finished
  records built elsewhere — the service's per-request
  ``service_request`` family, whose queue and exec times are known only
  after the fact.
* **Two export formats.**  JSONL (one record per line, for ad-hoc
  analysis) and the Chrome ``trace_event`` JSON loadable in Perfetto /
  ``chrome://tracing`` (``ph: "X"`` complete events plus ``process_name``
  metadata per pid).

Timestamps are wall-clock anchored (``time.time`` at tracer creation)
but advance with ``time.perf_counter``, so durations are monotonic-clock
accurate while ingested records stamped with ``time.time`` still line up
on a common axis.

A statement executes as a single-threaded iterator tree, so the span
stack is per thread; any number of threads may trace into one tracer.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence

#: Default ring-buffer capacity (finished spans retained per tracer).
DEFAULT_CAPACITY = 8192


class SpanRecord:
    """One finished span.  ``start_s``/``end_s`` are wall-anchored seconds."""

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name",
        "start_s", "end_s", "pid", "attrs",
    )

    def __init__(self, trace_id: str, span_id: str, parent_id: str,
                 name: str, start_s: float, end_s: float, pid: int,
                 attrs: Dict[str, Any]):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s = end_s
        self.pid = pid
        self.attrs = attrs

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "pid": self.pid,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SpanRecord":
        return cls(
            d["trace_id"], d["span_id"], d.get("parent_id", ""),
            d["name"], d["start_s"], d["end_s"], d.get("pid", 0),
            d.get("attrs", {}),
        )

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id or None}, "
            f"dur={self.duration_s * 1000:.3f} ms)"
        )


class TraceSpan:
    """Live span handle (context manager) produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "trace_id", "span_id", "parent_id",
                 "attrs", "_start", "_stack", "_entered")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.trace_id = ""
        self.span_id = ""
        self.parent_id = ""
        self._start = 0.0
        #: The opening thread's span stack, which the span leaves on exit.
        self._stack: List["TraceSpan"] = []
        self._entered = False

    def set(self, **attrs: Any) -> "TraceSpan":
        """Attach/overwrite attributes mid-span (recorded at exit)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "TraceSpan":
        if self._entered:
            raise RuntimeError(
                f"trace span {self.name!r} is not re-entrant"
            )
        self._entered = True
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._entered:
            raise RuntimeError(
                f"trace span {self.name!r} exited without being entered"
            )
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        self._entered = False


class _NullTraceSpan:
    """No-op stand-in returned by :func:`maybe_span` for a None tracer."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullTraceSpan":
        return self

    def __enter__(self) -> "_NullTraceSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_TRACE_SPAN = _NullTraceSpan()


def maybe_span(tracer: "Optional[Tracer]", name: str, **attrs: Any):
    """``with maybe_span(tracer, "phase"):`` — a no-op when tracer is None."""
    if tracer is None:
        return NULL_TRACE_SPAN
    return tracer.span(name, **attrs)


class Tracer:
    """Produces hierarchical spans and sinks finished ones in a ring buffer.

    >>> t = Tracer()
    >>> with t.span("query", sql="SELECT 1"):
    ...     with t.span("scan"):
    ...         pass
    >>> [r.name for r in t.records()]
    ['scan', 'query']
    >>> scan, query = t.records()
    >>> scan.parent_id == query.span_id
    True
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: Deque[SpanRecord] = deque(maxlen=capacity)
        self._sink_lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self.dropped = 0
        self.pid = os.getpid()
        # Wall-anchored monotonic clock: lines up with ``time.time``
        # stamps, immune to wall-clock steps *within* a tracer's life.
        self._epoch_wall = time.time()
        self._epoch_perf = time.perf_counter()

    def ingest(self, records: Sequence[Dict[str, Any]]) -> int:
        """Append finished records (:meth:`SpanRecord.as_dict` shape).

        The caller mints their ids and parents, so this is a plain
        append; returns the number ingested.
        """
        for d in records:
            self._sink(SpanRecord.from_dict(d))
        return len(records)

    # -- span lifecycle ----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> TraceSpan:
        return TraceSpan(self, name, attrs)

    def _thread_stack(self) -> List[TraceSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def depth(self) -> int:
        """Open spans on the calling thread."""
        return len(self._thread_stack())

    def _now(self) -> float:
        return self._epoch_wall + (time.perf_counter() - self._epoch_perf)

    def _enter(self, span: TraceSpan) -> None:
        stack = self._thread_stack()
        if stack:
            span.parent_id = stack[-1].span_id
            span.trace_id = stack[-1].trace_id
        else:
            span.trace_id = f"t{next(self._trace_ids)}"
        span.span_id = f"s{next(self._span_ids)}"
        span._start = self._now()
        span._stack = stack
        stack.append(span)

    def _exit(self, span: TraceSpan) -> None:
        # Normal operation is strict LIFO; an abandoned generator whose
        # span is closed late by GC (possibly on another thread) must not
        # corrupt unrelated frames, so remove by identity from the stack
        # the span was opened on rather than popping blindly.
        stack = span._stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break
        self._sink(SpanRecord(
            span.trace_id, span.span_id, span.parent_id,
            span.name, span._start, self._now(), self.pid, span.attrs,
        ))

    def _sink(self, record: SpanRecord) -> None:
        with self._sink_lock:
            if len(self._buffer) == self.capacity:
                self.dropped += 1
            self._buffer.append(record)

    # -- sink access & management ------------------------------------------
    def records(self) -> List[SpanRecord]:
        """Snapshot of retained finished spans, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        with self._sink_lock:
            self._buffer.clear()
            self.dropped = 0

    # -- export ------------------------------------------------------------
    def jsonl_lines(self) -> Iterator[str]:
        for r in self.records():
            yield json.dumps(r.as_dict(), sort_keys=True)

    def to_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.jsonl_lines():
                fh.write(line + "\n")
                n += 1
        return n

    def to_chrome_trace(self) -> Dict[str, Any]:
        """The retained spans as a Chrome ``trace_event`` payload.

        Load the written JSON in Perfetto or ``chrome://tracing``.
        Timestamps are microseconds relative to the earliest retained
        span.
        """
        return chrome_trace_payload(self.records())

    def to_chrome_trace_file(self, path) -> int:
        payload = self.to_chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return len(payload["traceEvents"])

    def __repr__(self) -> str:
        return (
            f"Tracer({len(self._buffer)}/{self.capacity} spans, "
            f"dropped={self.dropped}, depth={self.depth})"
        )


def chrome_trace_payload(records: Sequence[SpanRecord]) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` dict from finished span records,
    with a ``process_name`` metadata event per pid."""
    events: List[Dict[str, Any]] = []
    pids: List[int] = []
    t0 = min((r.start_s for r in records), default=0.0)
    for r in records:
        if r.pid not in pids:
            pids.append(r.pid)
        args: Dict[str, Any] = {
            "trace_id": r.trace_id,
            "span_id": r.span_id,
            "parent_id": r.parent_id,
        }
        args.update(r.attrs)
        events.append({
            "name": r.name,
            "ph": "X",
            "ts": (r.start_s - t0) * 1e6,
            "dur": r.duration_s * 1e6,
            "pid": r.pid,
            "tid": 1,
            "cat": "sgb",
            "args": args,
        })
    for pid in pids:
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": {"name": "sgb-main"},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(payload: Dict[str, Any],
                          tolerance_s: float = 0.005) -> List[str]:
    """Structural checks on a Chrome trace payload; returns problem list.

    Verifies that every ``X`` event carries span/parent ids, that parent
    ids resolve, and that each child's ``[ts, ts + dur]`` interval nests
    inside its parent's (within ``tolerance_s``, which absorbs the skew
    between the tracer's clock anchor and ``time.time`` stamps on
    ingested records).  An empty list means the trace is
    well-formed.
    """
    problems: List[str] = []
    spans: Dict[str, Dict[str, Any]] = {}
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        sid = args.get("span_id")
        if not sid:
            problems.append(f"event {ev.get('name')!r} lacks args.span_id")
            continue
        if sid in spans:
            problems.append(f"duplicate span_id {sid!r}")
        spans[sid] = ev
    if not spans:
        problems.append("trace contains no complete (ph=X) span events")
        return problems
    tol_us = tolerance_s * 1e6
    for sid, ev in spans.items():
        parent_id = ev["args"].get("parent_id", "")
        if not parent_id:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(
                f"span {sid!r} ({ev['name']!r}) has unresolved parent "
                f"{parent_id!r}"
            )
            continue
        start, end = ev["ts"], ev["ts"] + ev["dur"]
        p_start, p_end = parent["ts"], parent["ts"] + parent["dur"]
        if start < p_start - tol_us or end > p_end + tol_us:
            problems.append(
                f"span {sid!r} ({ev['name']!r}) [{start:.1f}, {end:.1f}] µs "
                f"does not nest inside parent {parent_id!r} "
                f"[{p_start:.1f}, {p_end:.1f}] µs"
            )
    return problems
