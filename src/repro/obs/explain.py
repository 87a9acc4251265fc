"""The per-statement query context and the plan record it produces.

Every SELECT-shaped statement runs the same way: the Database builds one
:class:`QueryContext` — cancel token, tracer, and whether to keep
per-node accounting — and binds it to the freshly planned tree.  When
the context collects, every
:class:`~repro.engine.executor.base.PhysicalOperator` hands its raw
iterator to :meth:`QueryContext.record`: one generator per node per pass
that charges rows and inclusive wall time to the node's
:class:`NodeMetrics` and covers the pass with a lazily opened span.
Otherwise, and for a plan nobody bound (:data:`UNBOUND`), nodes iterate
bare; the nodes themselves check the token where rows enter the plan.

After the single pass over the root, :func:`plan_metrics` folds plan and
context into one plan-shaped, JSON-ready record — estimate and actuals
on the same node — and :func:`render_analyze` formats that record as
``EXPLAIN ANALYZE`` text.  ``metrics_json()``, the query log's counters
and the cumulative metric bag all read the same run.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricBag
from repro.obs.trace import NULL_TRACE_SPAN, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only; obs imports no engine code
    from repro.core.cancel import CancelToken


def _derived_ratios(counters: Dict[str, float]) -> Dict[str, float]:
    """Candidate/refinement ratios from a node's SGB counters.

    ``candidates_per_probe`` is the average index-probe fan-out;
    ``refines_per_candidate`` how many exact distance checks each
    candidate cost — together they say whether the index pruned
    (low fan-out) and whether refinement amplified work.
    """
    probes = counters.get("index_probes", 0)
    candidates = counters.get("candidates", 0)
    distances = counters.get("distance_computations", 0)
    out: Dict[str, float] = {}
    if probes > 0 and candidates > 0:
        out["candidates_per_probe"] = candidates / probes
    if candidates > 0 and distances > 0:
        out["refines_per_candidate"] = distances / candidates
    return out


class NodeMetrics:
    """Per-plan-node execution accounting (rows, loops, time, counters).

    Filled by :meth:`QueryContext.record`; ``bag`` is where the node's
    own operators count (the SGB counters, ``rows_spooled``).
    """

    __slots__ = ("rows_out", "loops", "time_s", "bag")

    def __init__(self) -> None:
        self.rows_out = 0
        self.loops = 0
        self.time_s = 0.0
        self.bag = MetricBag()

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "rows": self.rows_out,
            "loops": self.loops,
            "time_ms": self.time_s * 1000.0,
        }
        counters = self.bag.as_dict()
        if counters:
            out["counters"] = counters
        derived = _derived_ratios(counters)
        if derived:
            out["derived"] = {k: round(v, 4) for k, v in derived.items()}
        return out


class QueryContext:
    """What one statement's execution carries down its plan.

    ``cancel``
        :class:`~repro.core.cancel.CancelToken` or None; checked by the
        nodes through :meth:`check` where rows enter the plan (leaf
        scans, buffers) and in join probe loops, not at node edges.
    ``tracer``
        :class:`~repro.obs.trace.Tracer` or None; every node pass, SGB
        phase and worker partition emits a span into it.
    ``collect``
        Keep a :class:`NodeMetrics` per node (always on when tracing, so
        traced queries feed the cumulative counters).

    ``nodes`` maps each bound plan node to its :class:`NodeMetrics`, in
    pre-order; it stays empty unless ``collect``.  A context serves one
    plan, once: plans are planned fresh per statement and never re-run,
    so nothing is ever unbound.
    """

    __slots__ = ("cancel", "tracer", "collect", "nodes")

    def __init__(self, cancel: "Optional[CancelToken]" = None,
                 tracer: Optional[Tracer] = None,
                 collect: bool = False) -> None:
        self.cancel: "Optional[CancelToken]" = cancel
        self.tracer = tracer
        self.collect = collect or tracer is not None
        self.nodes: Dict[Any, NodeMetrics] = {}

    def bind(self, plan) -> None:
        """Point every node of ``plan`` at this context (pre-order)."""
        plan._ctx = self
        if self.collect:
            self.nodes[plan] = NodeMetrics()
        for child in plan.children():
            self.bind(child)

    def check(self) -> None:
        """Raise the token's typed error once the statement is cancelled
        or past its deadline; a no-op without a token."""
        if self.cancel is not None:
            self.cancel.check()

    def bag_of(self, node) -> Optional[MetricBag]:
        """The counter bag ``node``'s operators write to, or None."""
        nm = self.nodes.get(node)
        return nm.bag if nm is not None else None

    def record(self, node, it: Iterator[tuple]) -> Iterator[tuple]:
        """The one recorder: wrap one pass over a collecting ``node``'s
        output.

        Per row: rows out and time-to-next-row; around the pass, a span
        that opens at the first ``next()`` and closes on exhaustion,
        error or abandonment (LIMIT closing the generator).  It checks no
        token: the nodes do.

        Accumulated time is *inclusive* of the node's children (they
        run inside its ``next()``), mirroring PostgreSQL; time the
        consumer spends between rows is not charged.  If the producer
        raises mid-``next()`` or the consumer stops early, the
        ``finally`` still charges the in-flight ``next()`` instead of
        dropping it.
        """
        nm = self.nodes[node]
        clock = time.perf_counter
        if self.tracer is None:
            span = NULL_TRACE_SPAN
        else:
            attrs = {"node": type(node).__name__}
            if node._estimate is not None:
                attrs["est_rows"] = node._estimate.rows_int
                attrs["est_cost"] = round(node._estimate.total_cost, 2)
            span = self.tracer.span(node.describe(), **attrs)
        with span as sp:
            nm.loops += 1
            rows_before = nm.rows_out
            t0 = clock()
            charged = False  # is the segment since t0 already in time_s?
            try:
                for row in it:
                    nm.time_s += clock() - t0
                    charged = True
                    nm.rows_out += 1
                    yield row
                    t0 = clock()
                    charged = False
                # Exhaustion: charge the next() that raised StopIteration.
                nm.time_s += clock() - t0
                charged = True
            finally:
                if not charged:
                    nm.time_s += clock() - t0
                sp.set(rows=nm.rows_out - rows_before)


#: The context of a plan nobody bound (hand-built, or planned and run
#: outside the Database): no token, no tracer, nothing recorded.
UNBOUND = QueryContext()


def plan_metrics(plan, ctx: QueryContext) -> Dict[str, Any]:
    """The plan-shaped record of one run: a nested JSON-ready dict with,
    per node, the planner's estimate, the SGB strategy (``"auto"`` or
    what ran, with its ``flag`` / ``auto`` provenance) where the node
    has one, and (for a collecting ``ctx``) what the node actually
    did.  Everything downstream — ``EXPLAIN ANALYZE`` text,
    ``metrics_json()``, the query-log row — renders this record; nothing
    else in :mod:`repro.obs` walks a plan."""
    nodes = ctx.nodes

    def walk(node) -> Dict[str, Any]:
        out: Dict[str, Any] = {"node": node.describe()}
        source = getattr(node, "strategy_source", None)
        if source is not None:
            out["strategy"] = node.strategy
            out["strategy_source"] = source
        est = node._estimate
        if est is not None:
            out["estimate"] = est.render()
            out["estimated_rows"] = est.rows_int
            out["estimated_cost"] = {
                "startup": round(est.startup_cost, 4),
                "total": round(est.total_cost, 4),
            }
        nm = nodes.get(node)
        if nm is not None:
            out.update(nm.as_dict())
        kids = [walk(child) for child in node.children()]
        if kids:
            out["children"] = kids
        return out

    return walk(plan)


def render_analyze(record: Dict[str, Any]) -> str:
    """Format a collected :func:`plan_metrics` record like EXPLAIN
    ANALYZE output."""
    lines: List[str] = []

    def walk(rec: Dict[str, Any], indent: int) -> None:
        pad = "  " * indent
        est_part = f"({rec['estimate']})  " if "estimate" in rec else ""
        lines.append(
            f"{pad}-> {rec['node']}  {est_part}"
            f"(actual rows={rec['rows']} loops={rec['loops']}, "
            f"time={rec['time_ms']:.2f} ms)"
        )
        counters = rec.get("counters")
        if counters:
            body = " ".join(
                f"{k}={_fmt(v)}" for k, v in sorted(counters.items())
            )
            lines.append(f"{pad}     {body}")
            derived = _derived_ratios(counters)
            if derived:
                body = " ".join(
                    f"{k}={v:.2f}" for k, v in sorted(derived.items())
                )
                lines.append(f"{pad}     {body}")
        for child in rec.get("children", ()):
            walk(child, indent + 1)

    walk(record, 0)
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class AnalyzeResult:
    """Rows plus execution metrics from :meth:`Database.analyze`.

    ``rows``/``columns`` are the ordinary query result; ``metrics`` is
    the run's :func:`plan_metrics` record and ``plan_text`` its EXPLAIN
    ANALYZE rendering.
    """

    def __init__(self, columns: List[str], rows: List[tuple],
                 metrics: Dict[str, Any]):
        self.columns = columns
        self.rows = rows
        self.metrics = metrics

    @property
    def plan_text(self) -> str:
        return render_analyze(self.metrics)

    def metrics_json(self, indent: Optional[int] = None) -> str:
        """The per-node metrics tree as a JSON string (for bench output)."""
        return json.dumps(self.metrics, indent=indent, sort_keys=True)

    def node_counters(self) -> Dict[str, float]:
        """All node counter bags folded into one flat dict (sums)."""
        totals: Dict[str, float] = {}

        def walk(node: Dict[str, Any]) -> None:
            for name, value in node.get("counters", {}).items():
                totals[name] = totals.get(name, 0) + value
            for child in node.get("children", ()):
                walk(child)

        walk(self.metrics)
        return totals

    def __repr__(self) -> str:
        return (
            f"AnalyzeResult({self.columns}, {len(self.rows)} rows, "
            f"{len(self.plan_text.splitlines())} plan lines)"
        )
