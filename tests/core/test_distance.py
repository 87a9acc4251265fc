"""Distance metric tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.distance import (
    L1,
    L2,
    LINF,
    MinkowskiMetric,
    resolve_metric,
)
from repro.errors import DimensionMismatchError, InvalidParameterError

coord = st.floats(-1000, 1000, allow_nan=False)
point2 = st.tuples(coord, coord)


class TestEuclidean:
    def test_known_values(self):
        assert L2.distance((0, 0), (3, 4)) == 5.0
        assert L2.distance((1, 1), (1, 1)) == 0.0

    def test_within_matches_distance(self):
        assert L2.within((0, 0), (3, 4), 5.0)
        assert not L2.within((0, 0), (3, 4), 4.999)

    def test_within_early_exit_correct(self):
        # the early-exit optimization must not change the answer
        p = (0, 0, 0, 0)
        q = (10, 0.1, 0.1, 0.1)
        assert L2.within(p, q, 10.1)
        assert not L2.within(p, q, 10.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            L2.distance((1, 2), (1, 2, 3))
        with pytest.raises(DimensionMismatchError):
            L2.within((1,), (1, 2), 1)


class TestChebyshev:
    def test_known_values(self):
        assert LINF.distance((0, 0), (3, 4)) == 4.0
        assert LINF.distance((1, 5), (4, 6)) == 3.0

    def test_within(self):
        assert LINF.within((0, 0), (3, 3), 3)
        assert not LINF.within((0, 0), (3, 3.0001), 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            LINF.distance((1, 2), (1,))


class TestMinkowski:
    def test_l1_manhattan(self):
        assert L1.distance((0, 0), (3, 4)) == 7.0

    def test_p_must_be_geq_one(self):
        with pytest.raises(InvalidParameterError):
            MinkowskiMetric(0.5)

    def test_p2_equals_euclidean(self):
        m = MinkowskiMetric(2)
        assert m.distance((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_within_known_values(self):
        assert L1.within((0, 0), (3, 4), 7.0)
        assert not L1.within((0, 0), (3, 4), 6.999)
        m3 = MinkowskiMetric(3)
        assert m3.within((0, 0), (1, 1), 2 ** (1 / 3))

    def test_within_early_exit_correct(self):
        # the powered-sum early exit must not change the answer away from
        # the representability boundary (within compares Σ|a-b|^p with
        # eps^p, exact up to one ulp like EuclideanMetric's squared form)
        m3 = MinkowskiMetric(3)
        p = (0, 0, 0, 0)
        q = (10, 0.1, 0.1, 0.1)
        d = m3.distance(p, q)
        assert not m3.within(p, q, 10.0)
        assert m3.within(p, q, d * (1 + 1e-12))
        assert not m3.within(p, q, d * (1 - 1e-12))

    def test_within_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            L1.within((1, 2), (1, 2, 3), 1.0)

    @pytest.mark.parametrize("order", [1, 1.5, 2, 3, 7])
    @given(p=point2, q=point2, eps=st.floats(0, 100))
    def test_within_matches_distance(self, order, p, q, eps):
        m = MinkowskiMetric(order)
        d = m.distance(p, q)
        if abs(d - eps) <= 1e-9 * max(1.0, eps):
            return  # powered-sum vs rooted compare may differ by one ulp
        assert m.within(p, q, eps) == (d <= eps)


class TestResolve:
    @pytest.mark.parametrize("name,expected", [
        ("l2", L2), ("L2", L2), ("euclidean", L2), ("ltwo", L2),
        ("linf", LINF), ("chebyshev", LINF), ("max", LINF),
        ("l1", L1), ("manhattan", L1),
    ])
    def test_names(self, name, expected):
        assert resolve_metric(name) is expected

    def test_sql_metric_words_agree(self):
        # the array API and the SQL dialect read the same words alike
        from repro.sql.parser import _METRIC_WORDS

        for word, name in _METRIC_WORDS.items():
            assert resolve_metric(word) is resolve_metric(name), word

    def test_passthrough(self):
        assert resolve_metric(L2) is L2

    def test_unknown(self):
        with pytest.raises(InvalidParameterError):
            resolve_metric("hamming")

    def test_equality_by_name(self):
        assert MinkowskiMetric(2).name == "l2"
        assert L2 == MinkowskiMetric(2)


class TestMetricAxioms:
    @given(point2, point2)
    def test_symmetry(self, p, q):
        for m in (L2, LINF, L1):
            assert m.distance(p, q) == pytest.approx(m.distance(q, p))

    @given(point2, point2)
    def test_non_negativity_and_identity(self, p, q):
        for m in (L2, LINF, L1):
            assert m.distance(p, q) >= 0
            assert m.distance(p, p) == 0

    @given(point2, point2, point2)
    def test_triangle_inequality(self, p, q, r):
        for m in (L2, LINF, L1):
            assert (
                m.distance(p, r)
                <= m.distance(p, q) + m.distance(q, r) + 1e-9
            )

    @given(point2, point2)
    def test_linf_lower_bounds_l2(self, p, q):
        """L∞ <= L2 <= L1 — the ordering the filter logic assumes."""
        assert LINF.distance(p, q) <= L2.distance(p, q) + 1e-9
        assert L2.distance(p, q) <= L1.distance(p, q) + 1e-9

    @given(point2, point2, st.floats(0, 100, allow_nan=False))
    def test_within_consistent_with_distance(self, p, q, eps):
        for m in (L2, LINF):
            assert m.within(p, q, eps) == (m.distance(p, q) <= eps)
