"""An expression's column form against its row form.

``Expr.bind_column(ctx)`` must give ``list(map(expr.bind(ctx), rows))``
element for element, equal by ``repr`` (so ``1`` / ``1.0`` / ``True``
and ``0.0`` / ``-0.0`` differ), and raise what the row form raises —
the first offending row's error, type and message — where it raises.
Trees are generated over int, float, Decimal, bool, date, interval and
all-NULL columns, plus one column mixing every type, so NULLs, zero
divisors and type errors turn up anywhere in a column.  Where the row
form does not raise, the column itself (``_column_form``, without the
row-form rerun) must not raise either: its answers are its own.
"""

import datetime as dt
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.schema import Column, Schema
from repro.engine.types import Interval
from repro.errors import ExecutionError
from repro.sql.ast_nodes import (
    BinaryOp,
    BindContext,
    ColumnRef,
    FuncCall,
    IntervalLiteral,
    Literal,
    UnaryOp,
)
from repro.sql.parser import parse_one

ints = st.integers(-3, 3)
floats = st.one_of(st.floats(-10, 10, allow_nan=False),
                   st.sampled_from([0.0, -0.0, float("inf"), float("nan")]))
decimals = st.sampled_from([Decimal("0"), Decimal("1.5"), Decimal("-2")])
bools = st.booleans()
dates = st.dates(dt.date(1990, 1, 1), dt.date(2000, 12, 31))
intervals = st.builds(Interval, st.integers(-14, 14), st.integers(-40, 40))

#: column name -> the values it holds (NULL besides, in every column).
COLUMNS = {
    "i": ints, "f": floats, "m": decimals, "b": bools, "d": dates,
    "v": intervals, "n": st.nothing(),
    "x": st.one_of(ints, floats, decimals, bools, dates, intervals),
}
SCHEMA = Schema([Column(name, "any", "t") for name in COLUMNS])

rows_strategy = st.lists(
    st.tuples(*[st.one_of(st.none(), values)
                for values in COLUMNS.values()]),
    max_size=9)

leaves = st.one_of(
    st.sampled_from(list(COLUMNS)).map(ColumnRef),
    st.one_of(st.none(), ints, floats, decimals, bools, dates).map(Literal),
    st.builds(IntervalLiteral, st.integers(-3, 3),
              st.sampled_from(["day", "month"])),
)

BINARY = ["+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=",
          "and", "or"]


def _extend(children):
    return st.one_of(
        st.builds(BinaryOp, st.sampled_from(BINARY), children, children),
        st.builds(UnaryOp, st.sampled_from(["-", "not", "+"]), children),
        st.builds(lambda name, arg: FuncCall(name, [arg]),
                  st.sampled_from(["year", "abs"]), children),
    )


expressions = st.recursive(leaves, _extend, max_leaves=8)


def row_outcome(fn, rows):
    try:
        return "value", repr(list(map(fn, rows)))
    except Exception as exc:  # the type and message are compared
        return "raised", (type(exc), str(exc))


def column_outcome(fn, rows):
    try:
        values = fn(rows)
    except Exception as exc:
        return "raised", (type(exc), str(exc))
    assert type(values) is list
    return "value", repr(values)


def assert_parity(expr, rows):
    ctx = BindContext(SCHEMA)
    want = row_outcome(expr.bind(ctx), rows)
    assert column_outcome(expr.bind_column(ctx), rows) == want, expr
    if want[0] == "value":
        assert column_outcome(expr._column_form(ctx), rows) == want, expr


@given(expr=expressions, rows=rows_strategy)
@settings(max_examples=400, deadline=None)
def test_column_form_equals_row_form(expr, rows):
    assert_parity(expr, rows)


def _rows(n, **at):
    """``n`` rows of plain values; ``at`` maps ``column=(row, value)``."""
    rows = [[2, 1.5, Decimal("1.5"), True, dt.date(1995, 3, 1),
             Interval(days=1), None, 1] for _ in range(n)]
    names = list(COLUMNS)
    for name, (row, value) in at.items():
        rows[row][names.index(name)] = value
    return [tuple(row) for row in rows]


def expr_of(text):
    return parse_one(f"SELECT {text} FROM t").items[0].expr


@pytest.mark.parametrize("text, rows, error, message", [
    # a zero divisor in row 5 of 9
    ("i / x", _rows(9, x=(5, 0)), ExecutionError, "division by zero"),
    ("f % x", _rows(9, x=(5, 0.0)), ExecutionError, "division by zero"),
    ("d + 1", _rows(3), TypeError,
     "unsupported operand type(s) for +: 'datetime.date' and 'int'"),
    ("v - v", _rows(3), ExecutionError,
     "cannot subtract interval from Interval"),
    # the column evaluates ``year(d)`` over every row, failing at row 6,
    # before ``i / x``: the row form's first error, row 2's zero
    # divisor, is what is raised
    ("year(d) + i / x", _rows(9, x=(2, 0), d=(6, 1)), ExecutionError,
     "division by zero"),
])
def test_column_form_raises_the_first_offending_rows_error(
        text, rows, error, message):
    expr = expr_of(text)
    assert_parity(expr, rows)
    with pytest.raises(error) as raised:
        expr.bind_column(BindContext(SCHEMA))(rows)
    assert str(raised.value) == message


def test_null_propagates_through_every_column_operator():
    rows = _rows(4, i=(1, None), f=(2, None))
    for text in ("i + f", "i - f", "i * f", "i / f", "i % f", "i < f",
                 "i = f", "-i", "year(d) - i", "abs(f)", "d - d",
                 "i = 2 AND f > 1", "NOT (i > 1)"):
        assert_parity(expr_of(text), rows)


def test_constants_fold_to_one_value():
    ctx = BindContext(SCHEMA)
    column = expr_of("date '1998-12-01' - interval '90' day") \
        .bind_column(ctx)
    assert column(_rows(3)) == [dt.date(1998, 9, 2)] * 3
    assert expr_of("2 * 3.5").bind_column(ctx)([]) == []
    with pytest.raises(ExecutionError, match="division by zero"):
        expr_of("1 / 0").bind_column(ctx)(_rows(1))


def test_a_subquery_runs_once_for_both_forms():
    runs = []

    def runner(select):
        runs.append(select)
        return [(1,), (None,)]

    ctx = BindContext(SCHEMA, runner)
    expr = expr_of("i NOT IN (SELECT i FROM u)")
    rows = _rows(2, i=(1, 1))
    column = expr.bind_column(ctx)
    assert column(rows) == list(map(expr.bind(ctx), rows)) == [None, False]
    assert len(runs) == 1
