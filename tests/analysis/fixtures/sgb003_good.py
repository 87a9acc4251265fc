# sgblint: module=repro.core.fixture_metrics_good
"""SGB003 true negatives: lower-snake Prometheus-safe names."""


def record(bag, tracer):
    bag.incr("candidate_pairs")
    bag.observe("probe_latency", 0.5)
    with tracer.span("micro_batch"):
        pass
