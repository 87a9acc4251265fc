"""SGB003 — metric and span name literals must export cleanly."""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.analysis.astutil import str_const
from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Methods whose first string argument is a counter/histogram/span name
#: that ends up as (part of) a Prometheus series name.
NAME_METHODS = frozenset({
    "incr", "observe", "histogram", "hist_timer", "span",
})

#: Free functions taking ``(tracer, name)``.
NAME_FUNCTIONS = frozenset({"maybe_span"})

#: Lower-snake, starting with a letter — the subset of Prometheus's
#: ``[a-zA-Z_:][a-zA-Z0-9_:]*`` this repo standardizes on (the exporter
#: prefixes ``repro_`` and suffixes ``_total``/``_bucket`` itself, so colons,
#: uppercase, and leading underscores in the raw name would produce
#: inconsistent series).
NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


@register
class MetricsNamingRule(Rule):
    """String literals naming MetricBag counters, histograms, or trace
    spans must be lower-snake Prometheus-safe names not ending in ``_s``.

    The Prometheus exporter (``repro.obs.export``) emits every counter as
    ``repro_<name>_total``; names that are not ``[a-z][a-z0-9_]*``
    produce series that scrape targets reject, and ``_s`` is reserved
    for durations in seconds (``wall_time_s``, ``time_s``, the histogram
    summaries) — ``MetricBag.incr`` raises on such a counter name at
    runtime, and this rule moves that failure to lint time.

    Checked call shapes::

        bag.incr("candidates")            # counters
        bag.observe("probe_latency", dt)  # histograms
        bag.hist_timer("probe_latency")
        tracer.span("micro_batch")        # trace spans
        maybe_span(tracer, "ingest")      # free-function form

    Only literal names are checked; names built at runtime are the
    caller's responsibility (keep them rare).
    """

    id = "SGB003"
    title = "metric/span name literal is not Prometheus-exportable"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._name_literal(node)
            if name is None:
                continue
            if not NAME_RE.match(name):
                yield self.finding(
                    ctx, node,
                    f"metric/span name {name!r} is not lower-snake "
                    f"([a-z][a-z0-9_]*); it would export as an invalid "
                    f"or inconsistent Prometheus series",
                )
            elif name.endswith("_s"):
                yield self.finding(
                    ctx, node,
                    f"metric/span name {name!r} ends in '_s', which is "
                    f"reserved for durations in seconds",
                )

    @staticmethod
    def _name_literal(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in NAME_METHODS:
            if node.args:
                return str_const(node.args[0])
        elif isinstance(func, ast.Name) and func.id in NAME_FUNCTIONS:
            if len(node.args) >= 2:
                return str_const(node.args[1])
        return None
