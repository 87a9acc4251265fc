"""Sampling profiler attached to the tracer's span hierarchy.

The fourth observability layer: where :mod:`repro.obs.trace` records
*which phase* ran when, this module answers *what code* each phase spent
its time in.  A :class:`SamplingProfiler` periodically captures Python
stacks (``sys._current_frames()`` from a daemon thread by default, or a
``SIGPROF`` interval timer in ``mode="signal"``) and folds them into
collapsed-stack counts — the ``frame;frame;frame count`` "folded" format
flamegraph tooling consumes directly.

Span attribution
----------------
When the profiler is given the engine's :class:`~repro.obs.trace.Tracer`,
every sample taken on the thread currently executing inside that tracer
is prefixed with the live span-name path (rendered as ``span:<name>``
frames), so a flamegraph groups samples under ``span:query`` →
``span:SimilarityGroupBy ...`` → ``span:spool`` exactly like the trace
tree.  The read is deliberately best-effort: the sampler copies the
tracer's span stack without locking (the GIL makes the list snapshot
atomic enough for sampling purposes; a torn read costs one mis-attributed
sample, never a crash).

Worker processes
----------------
Partition-parallel execution reuses the trace-context plumbing: the
dispatching node ships ``(interval_s, span-path prefix)`` to each worker
(see :data:`repro.core.parallel.ProfileContext`), the worker runs its own
profiler for the duration of its partition, and the picklable
:meth:`state` payload is folded back with :meth:`ingest` — worker stacks
land under the dispatching span path, keeping one coherent flamegraph
across processes.

Overhead
--------
A stopped profiler is literally absent: no thread, no signal handler, no
per-row hooks anywhere in the engine, and ``Database`` hands the next
statement's :class:`~repro.obs.explain.QueryContext` ``profiler=None``
(``tests/engine/test_query_context.py`` pins that).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default sampling interval (5 ms ≈ 200 Hz — coarse enough to stay under
#: a percent of overhead, fine enough to resolve millisecond phases).
DEFAULT_INTERVAL_S = 0.005

#: Deepest stack recorded per sample; frames beyond it are dropped from
#: the *root* end (the leaf — where time is actually spent — is kept).
MAX_STACK_DEPTH = 64

#: Cap on distinct folded stacks retained; overflowing samples collapse
#: into a single ``<overflow>`` bucket so a pathological workload cannot
#: grow the profile without bound.
MAX_UNIQUE_STACKS = 50_000

Stack = Tuple[str, ...]

_OVERFLOW_KEY: Stack = ("<overflow>",)


def frame_stack(frame, max_depth: int = MAX_STACK_DEPTH) -> Stack:
    """Walk ``frame`` to its root; returns root→leaf ``file:function`` names."""
    out: List[str] = []
    f = frame
    while f is not None and len(out) < max_depth:
        code = f.f_code
        out.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
        f = f.f_back
    out.reverse()
    return tuple(out)


def span_prefix_of(tracer) -> Stack:
    """The tracer's live span-name path as ``span:<name>`` folded frames."""
    if tracer is None:
        return ()
    return tuple(f"span:{name}" for name in tracer.span_path())


class SamplingProfiler:
    """Collapsed-stack sampling profiler with per-span attribution.

    Parameters
    ----------
    interval_s:
        Target seconds between samples.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; samples taken on the
        thread currently inside one of its spans are prefixed with the
        span-name path.  Reassignable at any time (the Database swaps it
        when tracing toggles).
    mode:
        ``"thread"`` (default) samples every Python thread from a daemon
        sampler thread.  ``"signal"`` uses ``setitimer(ITIMER_PROF)`` +
        ``SIGPROF`` — main-thread-only and CPU-time driven (blocked /
        sleeping code is invisible to it), but with no sampler thread at
        all; it must be started from the main thread.
    prefix:
        Folded frames prepended to every sample — how worker processes
        land their stacks under the dispatching span path.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S,
                 tracer=None, mode: str = "thread",
                 prefix: Sequence[str] = ()):
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {interval_s}"
            )
        if mode not in ("thread", "signal"):
            raise ValueError(
                f"unknown profiler mode {mode!r}; "
                f"expected 'thread' or 'signal'"
            )
        self.interval_s = float(interval_s)
        self.tracer = tracer
        self.mode = mode
        self.prefix: Stack = tuple(prefix)
        self.counts: Dict[Stack, int] = {}
        self.samples = 0
        #: Samples collapsed into the overflow bucket (distinct-stack cap).
        self.overflowed = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._old_handler: Any = None

    # -- lifecycle ---------------------------------------------------------
    @property
    def running(self) -> bool:
        if self.mode == "thread":
            return self._thread is not None and self._thread.is_alive()
        return self._old_handler is not None

    def start(self) -> "SamplingProfiler":
        if self.running:
            raise RuntimeError("profiler is already running")
        if self.mode == "thread":
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._sample_loop, name="sgb-profiler", daemon=True
            )
            self._thread.start()
        else:
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(
                    "signal-mode profiling must start on the main thread"
                )
            self._old_handler = signal.signal(
                signal.SIGPROF, self._on_signal
            )
            signal.setitimer(
                signal.ITIMER_PROF, self.interval_s, self.interval_s
            )
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling; the collected profile is kept."""
        if self.mode == "thread":
            thread = self._thread
            if thread is not None:
                self._stop.set()
                thread.join(timeout=5.0)
                self._thread = None
        elif self._old_handler is not None:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._old_handler)
            self._old_handler = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def clear(self) -> None:
        self.counts.clear()
        self.samples = 0
        self.overflowed = 0

    # -- sampling ----------------------------------------------------------
    def _sample_loop(self) -> None:
        own_tid = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample_all(exclude_tid=own_tid)

    def _sample_all(self, exclude_tid: int) -> None:
        tracer = self.tracer
        span_prefix: Stack = ()
        owner_tid = None
        if tracer is not None:
            owner_tid = getattr(tracer, "owner_thread", None)
            span_prefix = span_prefix_of(tracer)
        for tid, frame in sys._current_frames().items():
            if tid == exclude_tid:
                continue
            stack = frame_stack(frame)
            if not stack:
                continue
            if span_prefix and tid == owner_tid:
                stack = span_prefix + stack
            self._count(self.prefix + stack)

    def _on_signal(self, signum, frame) -> None:
        stack = frame_stack(frame)
        if not stack:
            return
        tracer = self.tracer
        if tracer is not None and \
                getattr(tracer, "owner_thread", None) == \
                threading.get_ident():
            stack = span_prefix_of(tracer) + stack
        self._count(self.prefix + stack)

    def _count(self, key: Stack, n: int = 1) -> None:
        counts = self.counts
        if key not in counts and len(counts) >= MAX_UNIQUE_STACKS:
            self.overflowed += n
            key = _OVERFLOW_KEY
        counts[key] = counts.get(key, 0) + n
        self.samples += n

    # -- cross-process fold-back -------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Picklable snapshot for shipping across a process boundary."""
        return {
            "interval_s": self.interval_s,
            "samples": self.samples,
            "counts": [
                [list(stack), n] for stack, n in self.counts.items()
            ],
        }

    def ingest(self, state: Dict[str, Any],
               prefix: Sequence[str] = ()) -> int:
        """Fold a worker profiler's :meth:`state` into this profile.

        ``prefix`` frames are prepended to every ingested stack (worker
        payloads usually arrive pre-prefixed by the dispatch-side span
        path, so the default is no extra prefix).  Returns the number of
        samples folded in.
        """
        pre = tuple(prefix)
        folded = 0
        for raw_stack, n in state.get("counts", ()):
            self._count(pre + tuple(raw_stack), int(n))
            # _count already added to self.samples.
            folded += int(n)
        return folded

    def merge(self, other: "SamplingProfiler") -> "SamplingProfiler":
        for stack, n in other.counts.items():
            self._count(stack, n)
        return self

    # -- export ------------------------------------------------------------
    def folded(self) -> List[str]:
        """Collapsed-stack lines (``frame;frame;... count``), sorted."""
        return [
            ";".join(stack) + f" {n}"
            for stack, n in sorted(self.counts.items())
        ]

    def to_folded_file(self, path) -> int:
        """Write the folded profile; returns the number of stack lines."""
        lines = self.folded()
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    def self_times(self) -> Dict[str, int]:
        """Samples per leaf frame (self time, flamegraph tip width)."""
        out: Dict[str, int] = {}
        for stack, n in self.counts.items():
            leaf = stack[-1]
            out[leaf] = out.get(leaf, 0) + n
        return out

    def span_times(self) -> Dict[str, int]:
        """Samples per innermost ``span:`` frame ("" = outside any span)."""
        out: Dict[str, int] = {}
        for stack, n in self.counts.items():
            name = ""
            for frame in reversed(stack):
                if frame.startswith("span:"):
                    name = frame[len("span:"):]
                    break
            out[name] = out.get(name, 0) + n
        return out

    def report(self, top: int = 15) -> str:
        """Human-readable summary: totals, per-span, and hottest frames."""
        lines = [
            f"profile: {self.samples} samples @ {self.interval_s * 1000:g} ms "
            f"({len(self.counts)} distinct stacks, mode={self.mode})"
        ]
        if not self.samples:
            lines.append("  (no samples collected)")
            return "\n".join(lines)
        spans = {k: v for k, v in self.span_times().items() if k}
        if spans:
            lines.append("  by span:")
            for name, n in sorted(spans.items(), key=lambda kv: -kv[1]):
                lines.append(
                    f"    {n:6d}  {100.0 * n / self.samples:5.1f}%  {name}"
                )
        lines.append("  by self time:")
        ranked = sorted(self.self_times().items(), key=lambda kv: -kv[1])
        for frame, n in ranked[:top]:
            lines.append(
                f"    {n:6d}  {100.0 * n / self.samples:5.1f}%  {frame}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SamplingProfiler(mode={self.mode!r}, "
            f"interval_s={self.interval_s}, samples={self.samples}, "
            f"running={self.running})"
        )
