# sgblint: module=repro.core.fixture_span_bad
"""SGB004 true positives: spans that never (safely) enter/exit."""


def work(bag, tracer):
    tracer.span("phase")  # created and discarded
    sp = bag.hist_timer("load")  # assigned but never entered
    tracer.span("probe").__enter__()  # bypasses exception safety
    return sp
