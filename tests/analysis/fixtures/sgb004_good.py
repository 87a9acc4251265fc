# sgblint: module=repro.core.fixture_span_good
"""SGB004 true negatives: context-managed and factory-returned spans."""


def work(bag, tracer, stack):
    with tracer.span("phase"):
        pass
    sp = bag.hist_timer("load")
    with sp:
        pass
    stack.enter_context(bag.hist_timer("probe"))


def make_span(tracer, name):
    return tracer.span(name)
