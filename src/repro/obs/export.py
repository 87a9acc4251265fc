"""Prometheus text-format export for the engine's metrics.

One snapshot (:func:`prometheus_text`) unifies three collections under a
single name scheme:

* the flat :class:`~repro.obs.metrics.MetricBag` counters — SGB operator
  counters (``SGB_COUNTER_FIELDS``) become ``repro_sgb_<name>_total``,
  executor counters (``EXEC_COUNTER_FIELDS``) ``repro_exec_<name>_total``,
  anything else ``repro_<name>_total``;
* the bag's latency histograms — ``repro_<name>_seconds`` with cumulative
  ``_bucket{le="..."}`` series, ``_sum`` and ``_count`` (the ``le``
  boundaries are the fixed log-bucket scheme of :mod:`repro.obs.hist`);
* per-view streaming counters (:class:`~repro.streaming.stats.StreamStats`)
  — the *same* ``repro_sgb_*`` series, distinguished by the ``source``
  label (``source="batch"`` vs ``source="stream:<view>"``), because they
  deliberately share one counter vocabulary.

Every ``SGB_COUNTER_FIELDS`` / ``EXEC_COUNTER_FIELDS`` counter and every
``HISTOGRAM_FIELDS`` histogram is emitted even at zero, so a scrape target
exposes a stable series set from the first scrape.

:func:`parse_prometheus_text` is a minimal exposition-format parser used
by the round-trip tests and the CI smoke check — not a full Prometheus
client, but enough to read back everything this module writes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.hist import HISTOGRAM_FIELDS, LatencyHistogram
from repro.obs.metrics import (
    EXEC_COUNTER_FIELDS,
    SGB_COUNTER_FIELDS,
    MetricBag,
)

#: Prefix for every exported metric name.
NAMESPACE = "repro"

_BATCH_SOURCE = "batch"


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace(
        "\n", "\\n"
    )


def _labels(pairs: Mapping[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(pairs.items())
    )
    return "{" + body + "}"


def counter_metric_name(counter: str) -> str:
    """The exported series name for a flat counter."""
    if counter in SGB_COUNTER_FIELDS:
        return f"{NAMESPACE}_sgb_{counter}_total"
    if counter in EXEC_COUNTER_FIELDS:
        return f"{NAMESPACE}_exec_{counter}_total"
    return f"{NAMESPACE}_{counter}_total"


def timing_metric_name(timing: str) -> str:
    return f"{NAMESPACE}_{timing}_seconds_total"


def histogram_metric_name(hist: str) -> str:
    name = hist
    for suffix in ("_latency", "_seconds", "_time"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    return f"{NAMESPACE}_{name}_latency_seconds"


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: Dict[str, str] = {}

    def header(self, name: str, mtype: str, help_text: str) -> None:
        if name not in self._typed:
            self._typed[name] = mtype
            self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, labels: Mapping[str, str],
               value: float) -> None:
        self.lines.append(f"{name}{_labels(labels)} {_fmt_value(value)}")


def _emit_histogram(w: _Writer, name: str, hist: LatencyHistogram,
                    labels: Mapping[str, str]) -> None:
    w.header(name, "histogram",
             "Latency distribution (fixed base-2 log buckets).")
    for bound, cumulative in hist.bucket_items():
        sample_labels = dict(labels)
        sample_labels["le"] = _fmt_value(bound)
        w.sample(f"{name}_bucket", sample_labels, cumulative)
    w.sample(f"{name}_sum", labels, hist.sum_s)
    w.sample(f"{name}_count", labels, hist.count)


def prometheus_text(
    bag: MetricBag,
    streams: Optional[Mapping[str, Any]] = None,
    extra_counters: Optional[Mapping[str, float]] = None,
) -> str:
    """Render one Prometheus text-format snapshot.

    ``bag`` is the engine's cumulative metric bag; ``streams`` maps view
    names to their :class:`~repro.streaming.stats.StreamStats` (duck-typed:
    anything with the shared counter attributes plus ``wall_time_s``).
    ``extra_counters`` lets the caller add process-level counters (e.g.
    queries executed, trace spans dropped).
    """
    w = _Writer()

    # -- counters: full SGB/EXEC vocabulary first, extras after ------------
    for counter in SGB_COUNTER_FIELDS:
        name = counter_metric_name(counter)
        w.header(name, "counter", f"SGB operator counter '{counter}'.")
        w.sample(name, {"source": _BATCH_SOURCE}, bag.get(counter))
    for counter in EXEC_COUNTER_FIELDS:
        name = counter_metric_name(counter)
        w.header(name, "counter", f"Executor counter '{counter}'.")
        w.sample(name, {"source": _BATCH_SOURCE}, bag.get(counter))
    vocabulary = set(SGB_COUNTER_FIELDS) | set(EXEC_COUNTER_FIELDS)
    for counter in sorted(set(bag.counters) - vocabulary):
        name = counter_metric_name(counter)
        w.header(name, "counter", f"Engine counter '{counter}'.")
        w.sample(name, {"source": _BATCH_SOURCE}, bag.get(counter))
    for counter, value in sorted((extra_counters or {}).items()):
        name = counter_metric_name(counter)
        w.header(name, "counter", f"Process counter '{counter}'.")
        w.sample(name, {}, value)

    # -- streaming views: same vocabulary, labelled by source --------------
    for view_name, stats in sorted((streams or {}).items()):
        source = f"stream:{view_name}"
        for counter in SGB_COUNTER_FIELDS:
            name = counter_metric_name(counter)
            w.header(name, "counter", f"SGB operator counter '{counter}'.")
            w.sample(name, {"source": source}, getattr(stats, counter, 0))
        name = timing_metric_name("ingest_wall")
        w.header(name, "counter", "Accumulated wall time.")
        w.sample(name, {"source": source},
                 getattr(stats, "wall_time_s", 0.0))

    # -- histograms: well-known set always present, extras after -----------
    emitted = set()
    for hist_name in HISTOGRAM_FIELDS:
        hist = bag.histograms.get(hist_name)
        _emit_histogram(w, histogram_metric_name(hist_name),
                        hist if hist is not None else LatencyHistogram(),
                        {"source": _BATCH_SOURCE})
        emitted.add(hist_name)
    for hist_name in sorted(set(bag.histograms) - emitted):
        _emit_histogram(w, histogram_metric_name(hist_name),
                        bag.histograms[hist_name],
                        {"source": _BATCH_SOURCE})

    return "\n".join(w.lines) + "\n"


def gauge_metric_name(gauge: str) -> str:
    return f"{NAMESPACE}_{gauge}"


def prometheus_text_for_bag(
    bag: MetricBag,
    counters: Tuple[str, ...] = (),
    histograms: Tuple[str, ...] = (),
    gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render one *labelled-vocabulary* bag as exposition text.

    Unlike :func:`prometheus_text` — which is welded to the engine's
    SGB/EXEC vocabulary and stream-view labelling — this renders an
    arbitrary bag against a caller-supplied vocabulary: every name in
    ``counters`` / ``histograms`` is emitted even at zero (stable series
    set from the first scrape), bag entries outside the vocabulary are
    appended after it, and ``gauges`` carries point-in-time values
    (queue depth, in-flight requests) that don't belong in a monotonic
    bag.  :mod:`repro.service` uses it for the service section of
    ``GET /metrics``; the output parses with
    :func:`parse_prometheus_text` just like the engine snapshot.
    """
    w = _Writer()
    for counter in counters:
        name = counter_metric_name(counter)
        w.header(name, "counter", f"Counter '{counter}'.")
        w.sample(name, {}, bag.get(counter))
    for counter in sorted(set(bag.counters) - set(counters)):
        name = counter_metric_name(counter)
        w.header(name, "counter", f"Counter '{counter}'.")
        w.sample(name, {}, bag.get(counter))
    for gauge, value in sorted((gauges or {}).items()):
        name = gauge_metric_name(gauge)
        w.header(name, "gauge", f"Gauge '{gauge}'.")
        w.sample(name, {}, value)
    for hist_name in histograms:
        hist = bag.histograms.get(hist_name)
        _emit_histogram(w, histogram_metric_name(hist_name),
                        hist if hist is not None else LatencyHistogram(),
                        {})
    for hist_name in sorted(set(bag.histograms) - set(histograms)):
        _emit_histogram(w, histogram_metric_name(hist_name),
                        bag.histograms[hist_name], {})
    return "\n".join(w.lines) + "\n"


# ----------------------------------------------------------------------
# minimal exposition-format parser (round-trip tests, CI smoke check)
# ----------------------------------------------------------------------
Sample = Tuple[str, Tuple[Tuple[str, str], ...]]


def _parse_labels(body: str, line: str) -> Tuple[Tuple[str, str], ...]:
    pairs: List[Tuple[str, str]] = []
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip().lstrip(",").strip()
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in line {line!r}")
        j = eq + 2
        value_chars: List[str] = []
        while j < len(body):
            c = body[j]
            if c == "\\":
                nxt = body[j + 1]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt)
                )
                j += 2
                continue
            if c == '"':
                break
            value_chars.append(c)
            j += 1
        pairs.append((key, "".join(value_chars)))
        i = j + 1
    return tuple(sorted(pairs))


def parse_prometheus_text(text: str) -> Dict[Sample, float]:
    """Parse exposition text into ``{(name, sorted_labels): value}``.

    Handles the subset :func:`prometheus_text` emits plus the rest of
    the sample-line grammar other exporters are allowed to add: comment
    lines, optional ``{label="value"}`` blocks (with ``\\n``/``\\"``/
    ``\\\\`` escapes), ``+Inf``/``-Inf``/``NaN`` values, values in
    exponent notation (``1e+16``), and an optional trailing millisecond
    timestamp after the value (ignored).

    The grammar is ``name [labels] value [timestamp]`` — the value is
    the *first* token after the name/labels, never the last token on
    the line: splitting from the right used to glue an exponent-notation
    value into the metric name and read the timestamp as the value.
    """
    out: Dict[Sample, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, rest = line.split("{", 1)
            body, value_part = rest.rsplit("}", 1)
            labels = _parse_labels(body, line)
        else:
            parts = line.split(None, 1)
            name = parts[0]
            value_part = parts[1] if len(parts) > 1 else ""
            labels = ()
        fields = value_part.split()
        if not fields:
            raise ValueError(f"sample line {line!r} has no value")
        value_text = fields[0]
        if value_text in ("+Inf", "Inf"):
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        out[(name.strip(), labels)] = value
    return out
