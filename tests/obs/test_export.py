"""Prometheus text exporter: naming, stability, and parser round-trip."""

import math
from pathlib import Path

import pytest

from repro.obs.export import (
    counter_metric_name,
    histogram_metric_name,
    parse_prometheus_text,
    prometheus_text,
    prometheus_text_for_bag,
)
from repro.obs.metrics import (
    EXEC_COUNTER_FIELDS,
    SGB_COUNTER_FIELDS,
    MetricBag,
)
from repro.obs.metrics import StreamStats


class TestNaming:
    def test_sgb_and_exec_counters_namespaced(self):
        assert counter_metric_name("points") == "repro_sgb_points_total"
        assert counter_metric_name("rows_skipped_null") == \
            "repro_exec_rows_skipped_null_total"
        assert counter_metric_name("queries") == "repro_queries_total"

    def test_timing_and_histogram_names(self):
        text = prometheus_text(MetricBag(), streams={"sv": StreamStats()})
        assert 'repro_ingest_wall_seconds_total{source="stream:sv"} 0' \
            in text.splitlines()
        assert histogram_metric_name("service_exec_latency") == \
            "repro_service_exec_latency_seconds"


class TestGoldenBody:
    def test_metrics_body_is_byte_identical(self):
        """A whole ``/metrics`` body — engine snapshot (batch bag, two
        stream views, process extras) plus the service section — against
        ``metrics_golden.txt``, written by the exporter as it stood when
        it had two renderers, less the engine section's histograms (the
        engine bag never held one).  ``benchmarks/e2e/layers.py`` parses
        this text; line order and HELP wording are part of the
        contract."""
        bag = MetricBag()
        bag.incr("points", 12)
        bag.incr("candidates", 40)
        bag.incr("rows_spooled", 12)
        bag.incr("zz_other", 2)
        stats = StreamStats()
        stats.points = stats.index_probes = 7
        stats.groups_created = 3
        stats.candidates = 11
        stats.wall_time_s = 0.125
        service = MetricBag()
        service.incr("service_requests", 9)
        service.incr("service_zz", 1)
        service.observe("service_exec_latency", 0.002)
        service.observe("other_time", 0.1)
        body = prometheus_text(
            bag, streams={"sv": stats, "a": StreamStats()},
            extra_counters={"queries": 5, "trace_spans_dropped": 0},
        ) + prometheus_text_for_bag(
            service,
            counters=("service_requests", "service_errors"),
            histograms=("service_exec_latency", "service_request_latency"),
            gauges={"service_inflight": 2.0, "service_queue_depth": 0.0},
        )
        golden = Path(__file__).with_name("metrics_golden.txt").read_text()
        assert body == golden


class TestSnapshot:
    def test_full_vocabulary_present_even_when_empty(self):
        parsed = parse_prometheus_text(prometheus_text(MetricBag()))
        names = {name for name, _ in parsed}
        for counter in SGB_COUNTER_FIELDS:
            assert counter_metric_name(counter) in names
        for counter in EXEC_COUNTER_FIELDS:
            assert counter_metric_name(counter) in names
        # The engine's vocabulary is counters only.
        assert not [n for n in names if n.endswith("_seconds_count")]

    def test_round_trip_counters_timings_histograms(self):
        bag = MetricBag()
        bag.incr("points", 7)
        bag.incr("index_probes", 3)
        bag.observe("demo_latency", 1.5e-6)
        bag.observe("demo_latency", 3e-6)
        stats = StreamStats()
        stats.wall_time_s = 0.25
        parsed = parse_prometheus_text(
            prometheus_text(bag, streams={"sv": stats}))
        batch = (("source", "batch"),)
        assert parsed[("repro_sgb_points_total", batch)] == 7
        assert parsed[("repro_sgb_index_probes_total", batch)] == 3
        assert parsed[("repro_ingest_wall_seconds_total",
                       (("source", "stream:sv"),))] == 0.25
        # The engine section renders counters only; a bag's histograms
        # render in the unlabelled (service) section.
        assert not [name for name, _ in parsed if "demo" in name]
        parsed = parse_prometheus_text(prometheus_text_for_bag(bag))
        assert parsed[("repro_demo_latency_seconds_count", ())] == 2
        assert parsed[("repro_demo_latency_seconds_sum", ())] == \
            pytest.approx(4.5e-6)
        # Cumulative bucket semantics: the 2 µs `le` holds one observation,
        # the 4 µs one both, and +Inf always equals the count.
        assert parsed[("repro_demo_latency_seconds_bucket",
                       (("le", "2e-06"),))] == 1
        assert parsed[("repro_demo_latency_seconds_bucket",
                       (("le", "4e-06"),))] == 2
        assert parsed[("repro_demo_latency_seconds_bucket",
                       (("le", "+Inf"),))] == 2

    def test_bucket_series_cumulative_monotone(self):
        bag = MetricBag()
        for i in range(40):
            bag.observe("demo_latency", (i + 1) * 1e-5)
        parsed = parse_prometheus_text(prometheus_text_for_bag(bag))
        buckets = sorted(
            [
                (dict(labels)["le"], value)
                for (name, labels), value in parsed.items()
                if name == "repro_demo_latency_seconds_bucket"
            ],
            key=lambda kv: math.inf if kv[0] == "+Inf" else float(kv[0]),
        )
        values = [v for _, v in buckets]
        assert values == sorted(values)
        assert values[-1] == 40

    def test_stream_views_labelled_by_source(self):
        stats = StreamStats()
        stats.points = 11
        stats.groups_merged = 2
        stats.wall_time_s = 0.5
        text = prometheus_text(MetricBag(), streams={"sv": stats})
        parsed = parse_prometheus_text(text)
        stream = (("source", "stream:sv"),)
        assert parsed[("repro_sgb_points_total", stream)] == 11
        assert parsed[("repro_sgb_groups_merged_total", stream)] == 2
        assert parsed[("repro_ingest_wall_seconds_total", stream)] == 0.5
        # Batch series for the same counters are still present.
        assert ("repro_sgb_points_total", (("source", "batch"),)) in parsed

    def test_extra_counters_unlabelled(self):
        text = prometheus_text(MetricBag(), extra_counters={"queries": 5})
        parsed = parse_prometheus_text(text)
        assert parsed[("repro_queries_total", ())] == 5

    def test_help_and_type_lines_unique_per_metric(self):
        bag = MetricBag()
        bag.observe("demo_latency", 1e-6)
        lines = prometheus_text_for_bag(
            bag, histograms=("demo_latency",)).splitlines()
        type_lines = [line for line in lines if line.startswith("# TYPE")]
        assert len(type_lines) == len(set(type_lines))
        assert any(line.endswith("histogram") for line in type_lines)


class TestParser:
    def test_escaped_labels_and_special_values(self):
        text = (
            '# TYPE demo counter\n'
            'demo{path="a\\"b\\\\c\\nd"} 1\n'
            'inf_metric +Inf\n'
            'ninf_metric -Inf\n'
            'nan_metric NaN\n'
        )
        parsed = parse_prometheus_text(text)
        assert parsed[("demo", (("path", 'a"b\\c\nd'),))] == 1
        assert parsed[("inf_metric", ())] == math.inf
        assert parsed[("ninf_metric", ())] == -math.inf
        assert math.isnan(parsed[("nan_metric", ())])

    def test_rejects_unquoted_label(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("m{le=5} 1\n")

    def test_inf_bucket_with_trailing_timestamp(self):
        # Regression: the exposition grammar allows an optional trailing
        # timestamp; the old parser right-split on the last space and
        # read the timestamp as the value (or choked on +Inf buckets).
        text = 'm_bucket{le="+Inf"} 2 1700000000000\n'
        parsed = parse_prometheus_text(text)
        assert parsed[("m_bucket", (("le", "+Inf"),))] == 2

    def test_exponent_value_with_trailing_timestamp(self):
        # Regression: 'm_total 1e+16 1700000000000' used to parse as
        # metric name 'm_total 1e+16' with the timestamp as its value.
        parsed = parse_prometheus_text("m_total 1e+16 1700000000000\n")
        assert parsed == {("m_total", ()): 1e16}

    def test_value_less_sample_line_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("m_total\n")

    def test_round_trip_huge_counter_for_bag(self):
        # _fmt_value switches to exponent notation at >= 1e15; the
        # parser must read that form back (satellite regression against
        # prometheus_text_for_bag output).
        bag = MetricBag()
        bag.incr("service_requests", 10 ** 16)
        bag.observe("service_request_latency", 5e-4)
        text = prometheus_text_for_bag(
            bag, counters=("service_requests",),
            histograms=("service_request_latency",),
        )
        assert "1e+16" in text
        parsed = parse_prometheus_text(text)
        assert parsed[("repro_service_requests_total", ())] == 1e16
        # The +Inf bucket of the histogram round-trips too.
        assert parsed[(
            "repro_service_request_latency_seconds_bucket",
            (("le", "+Inf"),),
        )] == 1
