"""repro.obs — observability for the SGB engine.

Three layers, cheapest first:

* :mod:`repro.obs.metrics` — the counter struct the SGB operators write
  (``StreamStats``) and the flat-counter bag that receives it
  (``MetricBag``);
* :mod:`repro.obs.hist` — fixed log-bucketed latency histograms (the
  service's request, queue-wait and execution latencies; the SGB
  operators record none);
* :mod:`repro.obs.trace` — hierarchical span tracing with ring-buffer
  retention and JSONL / Chrome ``trace_event`` export.

:mod:`repro.obs.explain` holds the per-statement query context and
the plan record behind ``EXPLAIN ANALYZE``; :mod:`repro.obs.export`
renders one Prometheus text-format snapshot over all of it;
:mod:`repro.obs.querylog` renders that plan record as one query-log row
per SELECT (plan fingerprint, estimate vs. actual rows, drift flag).
"""

from repro.obs.explain import (
    AnalyzeResult,
    NodeMetrics,
    QueryContext,
    plan_metrics,
    render_analyze,
)
from repro.obs.export import parse_prometheus_text, prometheus_text
from repro.obs.querylog import QueryLog, QueryRecord, plan_fingerprint
from repro.obs.hist import BUCKET_BOUNDS_S, LatencyHistogram
from repro.obs.metrics import (
    EXEC_COUNTER_FIELDS,
    SGB_COUNTER_FIELDS,
    MetricBag,
)
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    TraceSpan,
    chrome_trace_payload,
    maybe_span,
    validate_chrome_trace,
)

__all__ = [
    "AnalyzeResult",
    "BUCKET_BOUNDS_S",
    "EXEC_COUNTER_FIELDS",
    "LatencyHistogram",
    "MetricBag",
    "NodeMetrics",
    "QueryContext",
    "QueryLog",
    "QueryRecord",
    "SGB_COUNTER_FIELDS",
    "SpanRecord",
    "TraceSpan",
    "Tracer",
    "chrome_trace_payload",
    "maybe_span",
    "parse_prometheus_text",
    "plan_fingerprint",
    "plan_metrics",
    "prometheus_text",
    "render_analyze",
    "validate_chrome_trace",
]
