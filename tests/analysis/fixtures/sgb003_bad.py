# sgblint: module=repro.core.fixture_metrics_bad
"""SGB003 true positives: names that would not export cleanly."""


def record(bag, tracer):
    bag.incr("CandidatePairs")  # uppercase
    bag.observe("probe-latency", 0.5)  # dash
    bag.incr("finalize_s")  # reserved _s suffix
    with tracer.span("Micro Batch"):  # space + uppercase
        pass
