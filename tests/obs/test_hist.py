"""Unit tests for the fixed log-bucket latency histograms."""

import math

import pytest

from repro.obs.hist import (
    BUCKET_BOUNDS_S,
    BUCKET_GROWTH,
    BUCKET_START_S,
    N_BUCKETS,
    LatencyHistogram,
    bucket_index,
)
from repro.service.metrics import SERVICE_HISTOGRAM_FIELDS


class TestBucketMath:
    def test_bounds_are_strictly_growing_base2(self):
        assert len(BUCKET_BOUNDS_S) == N_BUCKETS
        assert BUCKET_BOUNDS_S[0] == BUCKET_START_S
        for lo, hi in zip(BUCKET_BOUNDS_S, BUCKET_BOUNDS_S[1:]):
            assert hi == pytest.approx(lo * BUCKET_GROWTH)

    def test_boundary_is_inclusive_upper_bound(self):
        # Prometheus `le` semantics: a value exactly on a bucket boundary
        # counts in that bucket, the next representable value above it in
        # the following one.
        for i, bound in enumerate(BUCKET_BOUNDS_S):
            assert bucket_index(bound) == i
            above = math.nextafter(bound, math.inf)
            expected = i + 1 if i + 1 < N_BUCKETS else N_BUCKETS
            assert bucket_index(above) == min(expected, N_BUCKETS)

    def test_tiny_and_nonpositive_values_land_in_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-1.0) == 0
        assert bucket_index(BUCKET_START_S / 2) == 0

    def test_overflow_bucket(self):
        assert bucket_index(BUCKET_BOUNDS_S[-1] * 2) == N_BUCKETS

    def test_interior_value_lands_between_its_bounds(self):
        value = 3e-6  # between the 2 µs and 4 µs boundaries
        idx = bucket_index(value)
        assert BUCKET_BOUNDS_S[idx - 1] < value <= BUCKET_BOUNDS_S[idx]


class TestLatencyHistogram:
    def test_observe_updates_count_and_sum(self):
        h = LatencyHistogram()
        for v in (1e-6, 4e-6, 1e-3):
            h.observe(v)
        assert h.count == 3
        assert h.sum_s == pytest.approx(1e-6 + 4e-6 + 1e-3)
        assert sum(h.counts) == 3

    def test_bucket_items_cumulative_and_inf_terminated(self):
        h = LatencyHistogram()
        h.observe(1e-6)
        h.observe(1e-6)
        h.observe(3e-6)
        items = list(h.bucket_items())
        bounds = [b for b, _ in items]
        counts = [c for _, c in items]
        assert bounds[-1] == math.inf
        assert counts[-1] == 3
        assert counts == sorted(counts)  # cumulative, monotone
        # Collapsed: nothing after the last non-empty finite bucket.
        assert bounds[-2] == BUCKET_BOUNDS_S[bucket_index(3e-6)]

    def test_merge_matches_pooled_observations(self):
        a, b, pooled = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        for i in range(50):
            v = (i + 1) * 1e-6
            (a if i % 2 else b).observe(v)
            pooled.observe(v)
        a.merge(b)
        assert a.counts == pooled.counts
        assert a.count == pooled.count
        assert a.sum_s == pytest.approx(pooled.sum_s)

    def test_bool_reflects_observations(self):
        h = LatencyHistogram()
        assert not h
        h.observe(1e-6)
        assert h


def test_histogram_fields_are_well_formed():
    # The histogram vocabulary /metrics emits even at zero count: since the
    # engine records no histograms, that is the service's set.
    assert len(set(SERVICE_HISTOGRAM_FIELDS)) == len(SERVICE_HISTOGRAM_FIELDS)
    for name in SERVICE_HISTOGRAM_FIELDS:
        assert not name.endswith("_s")
