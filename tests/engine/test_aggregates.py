"""Aggregate accumulator tests."""

import math
import struct
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.aggregates import is_aggregate_name, make_accumulator
from repro.errors import PlanningError
from repro.geometry.polygon import Polygon


def run(name, values, n_args=1, distinct=False):
    acc = make_accumulator(name, n_args, distinct)
    for v in values:
        acc.step(v if isinstance(v, tuple) else (v,))
    return acc.final()


class TestRegistry:
    def test_is_aggregate_name(self):
        assert is_aggregate_name("count")
        assert is_aggregate_name("ST_POLYGON")
        assert not is_aggregate_name("year")

    def test_unknown(self):
        with pytest.raises(PlanningError):
            make_accumulator("mode_agg", 1)

    def test_wrong_arity(self):
        with pytest.raises(PlanningError):
            make_accumulator("sum", 2)
        with pytest.raises(PlanningError):
            make_accumulator("st_polygon", 1)


class TestCount:
    def test_count_star(self):
        acc = make_accumulator("count", 0)
        for _ in range(5):
            acc.step(())
        assert acc.final() == 5

    def test_count_expr_skips_nulls(self):
        assert run("count", [1, None, 2, None]) == 2

    def test_count_empty(self):
        assert run("count", []) == 0


class TestSumAvgMinMax:
    def test_sum(self):
        assert run("sum", [1, 2, 3]) == 6
        assert run("sum", [1, None, 3]) == 4
        assert run("sum", []) is None
        assert run("sum", [None]) is None

    def test_avg(self):
        assert run("avg", [2, 4]) == 3.0
        assert run("avg", [2, None, 4]) == 3.0
        assert run("avg", []) is None
        assert run("average", [1, 3]) == 2.0  # paper alias

    def test_min_max(self):
        assert run("min", [3, 1, 2]) == 1
        assert run("max", [3, 1, 2]) == 3
        assert run("min", [None, 5]) == 5
        assert run("max", []) is None


class TestArrayAgg:
    def test_collects_in_order(self):
        assert run("array_agg", [3, 1, 2]) == [3, 1, 2]

    def test_keeps_nulls(self):
        assert run("array_agg", [1, None]) == [1, None]

    def test_list_id_alias(self):
        assert run("list_id", ["u1", "u2"]) == ["u1", "u2"]


class TestStPolygon:
    def test_enclosing_polygon(self):
        values = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0),
                  (1.0, 1.0)]
        poly = run("st_polygon", values, n_args=2)
        assert isinstance(poly, Polygon)
        assert poly.area() == pytest.approx(4.0)

    def test_null_coordinates_skipped(self):
        poly = run("st_polygon", [(0.0, 0.0), (None, 1.0), (2.0, 0.0)],
                   n_args=2)
        assert poly.perimeter() == pytest.approx(2.0)

    def test_all_null_returns_none(self):
        assert run("st_polygon", [(None, None)], n_args=2) is None


class TestDistinct:
    def test_count_distinct(self):
        assert run("count", [1, 1, 2, 2, 3], distinct=True) == 3

    def test_sum_distinct(self):
        assert run("sum", [5, 5, 2], distinct=True) == 7

    def test_array_agg_distinct(self):
        assert run("array_agg", [1, 1, 2], distinct=True) == [1, 2]


def bits(value):
    """``value`` with every float replaced by its IEEE bits, so -0.0 and
    0.0 differ.  A NaN is only NaN: which operand's sign and payload
    ``nan + -nan`` carries differs between CPython's specialised float
    add and ``float.__add__``, so not even the ``step`` loop repeats it
    once the interpreter has warmed up."""
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value)
                else struct.pack("d", value))
    return (type(value).__name__, repr(value))


def outcome(fn):
    try:
        return bits(fn())
    except Exception as exc:  # the type is compared
        return ("raised", type(exc).__name__)


class TestStepManyIsTheStepLoop:
    """``step_many`` over a column, in one or two calls, gives what the
    ``step`` loop gives, to the bit: same float additions in the same
    order, the same first-seen minimum or maximum, the same error."""

    NAMES = ["count", "sum", "avg", "min", "max"]
    special = st.sampled_from([None, -0.0, 0.0, math.nan, math.inf,
                               -math.inf, 1, 1.0, 1e-310])
    numbers = st.one_of(
        st.none(), special, st.integers(-10**20, 10**20), st.floats())
    decimals = st.one_of(
        st.none(), st.integers(-100, 100),
        st.decimals(allow_nan=False, places=3, min_value=-1000,
                    max_value=1000))

    def loop(self, name, column):
        acc = make_accumulator(name, 1)
        for v in column:
            acc.step((v,))
        return acc.final()

    def column(self, name, column, cut):
        acc = make_accumulator(name, 1)
        acc.step_many(cut, [column[:cut]])
        acc.step_many(len(column) - cut, [column[cut:]])
        return acc.final()

    @pytest.mark.parametrize("name", NAMES)
    @given(column=st.one_of(st.lists(numbers, max_size=12),
                            st.lists(decimals, max_size=12),
                            st.lists(st.one_of(decimals, numbers),
                                     max_size=6)),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, name, column, data):
        cut = data.draw(st.integers(0, len(column)))
        assert outcome(lambda: self.column(name, column, cut)) == outcome(
            lambda: self.loop(name, column))

    @pytest.mark.parametrize("name", NAMES)
    def test_empty_column(self, name):
        assert bits(self.column(name, [], 0)) == bits(self.loop(name, []))

    def test_float_sum_is_not_compensated(self):
        column = [1e16, 1.0, -1e16]
        assert self.column("sum", column, 0) == self.loop("sum", column)
        assert self.column("sum", column, 0) == 0.0  # fsum would say 1.0

    @pytest.mark.parametrize("name", ["min", "max"])
    def test_a_nan_compares_against_the_running_value(self, name):
        # The loop keeps 5.0 past the NaN (NaN < 5.0 is false) and then
        # takes 3.0 or 7.0; min/max of the tail alone would return NaN.
        for column in ([5.0, math.nan, 3.0], [5.0, math.nan, 7.0]):
            for cut in range(len(column) + 1):
                assert bits(self.column(name, column, cut)) == bits(
                    self.loop(name, column))

    def test_first_of_equal_minima_is_kept(self):
        column = [0.0, -0.0, Decimal("0"), 0]
        for name in ("min", "max"):
            assert bits(self.column(name, column, 1)) == bits(0.0)
