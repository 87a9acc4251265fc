"""Prometheus text-format export for the engine's metrics.

One writer renders every snapshot as a sequence of *sections* — one
bag's worth of counters and histograms under one label set:

* flat counters — SGB operator counters (``SGB_COUNTER_FIELDS``) become
  ``repro_sgb_<name>_total``, executor counters (``EXEC_COUNTER_FIELDS``)
  ``repro_exec_<name>_total``, anything else ``repro_<name>_total``;
* latency histograms — ``repro_<name>_seconds`` with cumulative
  ``_bucket{le="..."}`` series, ``_sum`` and ``_count`` (the ``le``
  boundaries are the fixed log-bucket scheme of :mod:`repro.obs.hist`).

The engine snapshot (:func:`prometheus_text`) is three kinds of section:
the cumulative :class:`~repro.obs.metrics.MetricBag`
(``source="batch"``), one per stream view's
:class:`~repro.obs.metrics.StreamStats` (the *same* ``repro_sgb_*``
series under ``source="stream:<view>"``, because they deliberately share
one counter vocabulary) and the unlabelled process extras; the service's
``/metrics`` section (:func:`prometheus_text_for_bag`) is one more.
Every name in a section's vocabulary is emitted even at zero, so a scrape
target exposes a stable series set from the first scrape.

:func:`parse_prometheus_text` is a minimal exposition-format parser used
by the round-trip tests and the CI smoke check — not a full Prometheus
client, but enough to read back everything this module writes.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

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


def histogram_metric_name(hist: str) -> str:
    name = hist
    for suffix in ("_latency", "_seconds", "_time"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
            break
    return f"{NAMESPACE}_{name}_latency_seconds"


class _Writer:
    """The one exposition writer.

    Counter and gauge lines come out in call order; histogram lines are
    held back and follow them, so a snapshot made of several sections
    still lists every counter before the first bucket series.  HELP/TYPE
    headers are written the first time a series name appears.
    """

    def __init__(self) -> None:
        self._lines: List[str] = []
        self._hist_lines: List[str] = []
        self._typed: Set[str] = set()

    def _header(self, lines: List[str], name: str, mtype: str,
                help_text: str) -> None:
        if name not in self._typed:
            self._typed.add(name)
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, mtype: str, help_text: str,
               labels: Mapping[str, str], value: float) -> None:
        """One counter or gauge line (with its header on first use)."""
        self._header(self._lines, name, mtype, help_text)
        self._lines.append(f"{name}{_labels(labels)} {_fmt_value(value)}")

    def section(self, counters: Mapping[str, float],
                histograms: Optional[Mapping[str, LatencyHistogram]] = None,
                *, labels: Optional[Mapping[str, str]] = None,
                counter_names: Tuple[str, ...] = (),
                histogram_names: Tuple[str, ...] = (),
                kind: str = "Counter") -> None:
        """One bag under one label set: every name of the two
        vocabularies (zero / empty when the bag lacks it), then the
        bag's other entries sorted by name.  ``kind`` words the HELP
        line of counters outside the SGB / executor vocabulary."""
        labels = labels or {}
        histograms = histograms or {}
        for counter in (*counter_names,
                        *sorted(set(counters) - set(counter_names))):
            if counter in SGB_COUNTER_FIELDS:
                help_kind = "SGB operator counter"
            elif counter in EXEC_COUNTER_FIELDS:
                help_kind = "Executor counter"
            else:
                help_kind = kind
            self.sample(counter_metric_name(counter), "counter",
                        f"{help_kind} '{counter}'.", labels,
                        counters.get(counter, 0))
        lines = self._hist_lines
        for hist_name in (*histogram_names,
                          *sorted(set(histograms) - set(histogram_names))):
            hist = histograms.get(hist_name)
            if hist is None:
                hist = LatencyHistogram()
            name = histogram_metric_name(hist_name)
            self._header(lines, name, "histogram",
                         "Latency distribution (fixed base-2 log buckets).")
            for bound, cumulative in hist.bucket_items():
                bucket_labels = {**labels, "le": _fmt_value(bound)}
                lines.append(f"{name}_bucket{_labels(bucket_labels)} "
                             f"{_fmt_value(cumulative)}")
            lines.append(f"{name}_sum{_labels(labels)} "
                         f"{_fmt_value(hist.sum_s)}")
            lines.append(f"{name}_count{_labels(labels)} "
                         f"{_fmt_value(hist.count)}")

    def text(self) -> str:
        return "\n".join(self._lines + self._hist_lines) + "\n"


def prometheus_text(
    bag: MetricBag,
    streams: Optional[Mapping[str, Any]] = None,
    extra_counters: Optional[Mapping[str, float]] = None,
) -> str:
    """Render the engine's Prometheus text-format snapshot.

    ``bag`` is the engine's cumulative metric bag; ``streams`` maps view
    names to their :class:`~repro.obs.metrics.StreamStats` (duck-typed:
    anything with the shared counter attributes plus ``wall_time_s``).
    ``extra_counters`` lets the caller add process-level counters (e.g.
    queries executed, trace spans dropped).
    """
    w = _Writer()
    w.section(bag.counters, bag.histograms,
              labels={"source": _BATCH_SOURCE},
              counter_names=SGB_COUNTER_FIELDS + EXEC_COUNTER_FIELDS,
              histogram_names=HISTOGRAM_FIELDS, kind="Engine counter")
    w.section(extra_counters or {}, kind="Process counter")
    for view_name, stats in sorted((streams or {}).items()):
        source = {"source": f"stream:{view_name}"}
        w.section({c: getattr(stats, c, 0) for c in SGB_COUNTER_FIELDS},
                  labels=source, counter_names=SGB_COUNTER_FIELDS)
        w.sample(f"{NAMESPACE}_ingest_wall_seconds_total", "counter",
                 "Accumulated wall time.", source,
                 getattr(stats, "wall_time_s", 0.0))
    return w.text()


def prometheus_text_for_bag(
    bag: MetricBag,
    counters: Tuple[str, ...] = (),
    histograms: Tuple[str, ...] = (),
    gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render one unlabelled bag against a caller-supplied vocabulary.

    ``gauges`` carries point-in-time values (queue depth, in-flight
    requests) that don't belong in a monotonic bag.  :mod:`repro.service`
    uses it for the service section of ``GET /metrics``; the output
    parses with :func:`parse_prometheus_text` just like the engine
    snapshot.
    """
    w = _Writer()
    w.section(bag.counters, bag.histograms,
              counter_names=counters, histogram_names=histograms)
    for gauge, value in sorted((gauges or {}).items()):
        w.sample(f"{NAMESPACE}_{gauge}", "gauge", f"Gauge '{gauge}'.", {},
                 value)
    return w.text()


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
