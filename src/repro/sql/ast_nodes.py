"""AST for the SQL dialect, with executable expression binding.

Expression nodes double as the executable form: ``bind(ctx)`` compiles a
node against a schema into a plain ``row -> value`` callable, resolving
column references to row indices once at plan time, and
``bind_column(ctx)`` into a ``rows -> list`` callable that evaluates the
same expression over a whole column of rows.  Nodes implement
structural equality via :meth:`Expr.key` so the planner can match aggregate
calls and GROUP BY expressions appearing in several clauses.

SQL three-valued logic is honoured: comparisons and arithmetic propagate
NULL (``None``); AND/OR/NOT follow Kleene logic; ``x [NOT] IN (…)`` is
NULL when nothing matches and a candidate is NULL; filters accept a row
only when the predicate is exactly ``True``.
"""

from __future__ import annotations

import datetime as _dt
import decimal as _decimal
import operator
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.functions import nonzero_divisor, resolve_function
from repro.engine.schema import Schema
from repro.engine.types import Interval
from repro.errors import ExecutionError, ParseError, PlanningError

RowFn = Callable[[tuple], Any]
ColumnFn = Callable[[List[tuple]], list]


class BindContext:
    """What an expression needs to compile itself.

    ``subquery_runner`` is provided by the planner and executes an
    uncorrelated sub-select, returning its rows (used by IN / scalar
    subqueries).
    """

    def __init__(
        self,
        schema: Schema,
        subquery_runner: Optional[Callable[["Select"], List[tuple]]] = None,
    ):
        self.schema = schema
        self.subquery_runner = subquery_runner
        self._subquery_rows: Dict["Select", List[tuple]] = {}

    def subquery_rows(self, select: "Select") -> List[tuple]:
        """The rows of the uncorrelated sub-select ``select``, run once
        per context however often an expression holding it is bound (a
        column form that maps its row form binds that form again)."""
        if self.subquery_runner is None:
            raise PlanningError("IN (SELECT …) is not allowed in this clause")
        rows = self._subquery_rows.get(select)
        if rows is None:
            rows = self._subquery_rows[select] = self.subquery_runner(select)
        return rows


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------
class Expr:
    """Base expression node."""

    def bind(self, ctx: BindContext) -> RowFn:
        raise NotImplementedError(type(self).__name__)

    def bind_column(self, ctx: BindContext,
                    row: Optional[RowFn] = None) -> ColumnFn:
        """A ``rows -> list`` callable equal to ``list(map(self.bind(ctx),
        rows))`` element for element, by value and by type.

        A column is evaluated subterm by subterm, so when it raises, the
        error may belong to a later row than the row form's would: the
        row form then reruns over the same rows and raises the first
        offending row's error.  ``row`` is that row form when the caller
        has bound it already.
        """
        if row is None:
            row = self.bind(ctx)
        column = self._column_form(ctx)

        def evaluate(rows: List[tuple]) -> list:
            try:
                return column(rows)
            except Exception:  # the row form raises the first row's error
                return list(map(row, rows))

        return evaluate

    def _column_form(self, ctx: BindContext) -> ColumnFn:
        """The column evaluation :meth:`bind_column` wraps, for parents
        to compose: the row form mapped over the rows, unless a node's
        column pays for an override."""
        fn = self.bind(ctx)
        return lambda rows: list(map(fn, rows))

    def key(self) -> tuple:
        """Structural identity used for GROUP BY / aggregate matching."""
        raise NotImplementedError(type(self).__name__)

    def children(self) -> Sequence["Expr"]:
        return ()

    def walk(self):
        """Yield self and all descendants (pre-order)."""
        yield self
        for c in self.children():
            yield from c.walk()

    def contains_aggregate(self) -> bool:
        return any(isinstance(n, AggCall) for n in self.walk())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


class Literal(Expr):
    def __init__(self, value: Any):
        self.value = value

    def bind(self, ctx: BindContext) -> RowFn:
        value = self.value
        return lambda row: value

    def _column_form(self, ctx: BindContext) -> ColumnFn:
        return _constant_column(self.value)

    def key(self) -> tuple:
        return ("lit", self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class IntervalLiteral(Expr):
    def __init__(self, amount: int, unit: str):
        self.interval = Interval.of(amount, unit)
        self.amount = amount
        self.unit = unit

    def bind(self, ctx: BindContext) -> RowFn:
        interval = self.interval
        return lambda row: interval

    def _column_form(self, ctx: BindContext) -> ColumnFn:
        return _constant_column(self.interval)

    def key(self) -> tuple:
        return ("interval", self.interval.months, self.interval.days)

    def __repr__(self) -> str:
        return f"IntervalLiteral({self.amount} {self.unit})"


class ColumnRef(Expr):
    def __init__(self, name: str, qualifier: Optional[str] = None):
        self.name = name.lower()
        self.qualifier = qualifier.lower() if qualifier else None

    def bind(self, ctx: BindContext) -> RowFn:
        return operator.itemgetter(ctx.schema.resolve(self.name,
                                                      self.qualifier))

    def key(self) -> tuple:
        return ("col", self.qualifier, self.name)

    def __repr__(self) -> str:
        q = f"{self.qualifier}." if self.qualifier else ""
        return f"ColumnRef({q}{self.name})"


class Star(Expr):
    """``*`` — only legal inside COUNT(*) or as the lone select item."""

    def key(self) -> tuple:
        return ("star",)

    def bind(self, ctx: BindContext) -> RowFn:
        raise PlanningError("'*' cannot be evaluated as a scalar expression")

    def __repr__(self) -> str:
        return "Star()"


def _add(a: Any, b: Any) -> Any:
    if isinstance(b, Interval):
        if not isinstance(a, _dt.date):
            raise ExecutionError(f"cannot add interval to {type(a).__name__}")
        return b.add_to(a)
    if isinstance(a, Interval):
        return _add(b, a)
    return a + b


def _sub(a: Any, b: Any) -> Any:
    if isinstance(b, Interval):
        if not isinstance(a, _dt.date):
            raise ExecutionError(
                f"cannot subtract interval from {type(a).__name__}"
            )
        return b.negated().add_to(a)
    if isinstance(a, _dt.date) and isinstance(b, _dt.date):
        return (a - b).days
    return a - b


#: Operators over non-NULL operands (NULL in, NULL out is the binding's).
_ARITH: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _add, "-": _sub, "*": operator.mul,
    "/": nonzero_divisor(operator.truediv),
    "%": nonzero_divisor(operator.mod)}
_COMPARE: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "<>": operator.ne, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_UNARY: Dict[str, Callable[[Any], Any]] = {"-": operator.neg, "not": operator.not_}


def _and3(a: Any, b: Any) -> Any:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _or3(a: Any, b: Any) -> Any:
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)


def _is_constant(expr: Expr) -> bool:
    """A literal, or operators over literals: no column, no function
    call (``random()`` and ``sleep(s)`` must run per row)."""
    if isinstance(expr, (Literal, IntervalLiteral)):
        return True
    return (isinstance(expr, (BinaryOp, UnaryOp))
            and all(map(_is_constant, expr.children())))


#: :func:`_fold_value`'s answer when an expression is not folded.
_UNFOLDED = object()


def _fold_value(expr: Expr, fn: RowFn) -> Any:
    """``expr``'s bound ``fn`` evaluated once now if every operand is
    constant (``date '1998-12-01' - interval '90' day``) and that
    evaluation does not raise; :data:`_UNFOLDED` otherwise."""
    if not all(map(_is_constant, expr.children())):
        return _UNFOLDED
    try:
        return fn(())
    except Exception:  # raised again by ``fn`` at the first row
        return _UNFOLDED


def _folded(expr: Expr, fn: RowFn) -> RowFn:
    """``fn``, or a constant when :func:`_fold_value` folds it:
    ``SELECT 1 / 0 FROM t`` still fails per row."""
    value = _fold_value(expr, fn)
    if value is _UNFOLDED:
        return fn
    return lambda row: value


def _constant_column(value: Any) -> ColumnFn:
    return lambda rows: [value] * len(rows)


def _constant_form(expr: Expr, ctx: BindContext) -> ColumnFn:
    """The column form of an operator over constants: its folded value
    repeated, or the row form mapped when folding raised."""
    fn = expr.bind(ctx)
    value = _fold_value(expr, fn)
    if value is _UNFOLDED:
        return lambda rows: list(map(fn, rows))
    return _constant_column(value)


#: Operand types (NULL included) on which ``_add`` / ``_sub`` are the
#: plain ``+`` / ``-``.
_NULL = type(None)
_PLAIN_NUMBERS = frozenset({int, float, bool, _decimal.Decimal, _NULL})
_DAYS = operator.attrgetter("days")


def _binary_column(op: str, fn: Callable[[Any, Any], Any],
                   a: list, b: list) -> list:
    """``fn`` over the operand columns ``a`` and ``b``, NULL in, NULL
    out, mapped in C.  Where the C operator gives ``fn``'s answer on
    every operand here, it replaces ``fn``: ``+`` / ``-`` on plain
    numbers, and ``-`` on two date columns takes ``.days`` of C ``-``."""
    if op in ("+", "-"):  # the operand types tell NULLs apart too
        a_types, b_types = set(map(type, a)), set(map(type, b))
        nulls = _NULL in a_types or _NULL in b_types
        if a_types | b_types <= _PLAIN_NUMBERS:
            fn = operator.add if op == "+" else operator.sub
        elif op == "-" and a_types == b_types == {_dt.date}:
            return list(map(_DAYS, map(operator.sub, a, b)))
    else:
        nulls = None in a or None in b
    if nulls:
        return [None if x is None or y is None else fn(x, y)
                for x, y in zip(a, b)]
    return list(map(fn, a, b))


class BinaryOp(Expr):
    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op.lower()
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def bind(self, ctx: BindContext) -> RowFn:
        lf = self.left.bind(ctx)
        rf = self.right.bind(ctx)
        op = self.op
        fn = _ARITH.get(op) or _COMPARE.get(op)
        if fn is not None:
            def null_safe(row: tuple) -> Any:
                a, b = lf(row), rf(row)
                if a is None or b is None:
                    return None
                return fn(a, b)

            return _folded(self, null_safe)
        if op in ("and", "or"):
            kleene = _and3 if op == "and" else _or3
            return _folded(self, lambda row: kleene(lf(row), rf(row)))
        raise PlanningError(f"unknown binary operator {self.op!r}")

    def _column_form(self, ctx: BindContext) -> ColumnFn:
        if _is_constant(self):
            return _constant_form(self, ctx)
        lc = self.left._column_form(ctx)
        rc = self.right._column_form(ctx)
        op = self.op
        fn = _ARITH.get(op) or _COMPARE.get(op)
        if fn is None:  # AND / OR: both sides evaluated, as per row
            kleene = _and3 if op == "and" else _or3
            return lambda rows: list(map(kleene, lc(rows), rc(rows)))
        return lambda rows: _binary_column(op, fn, lc(rows), rc(rows))

    def key(self) -> tuple:
        return ("bin", self.op, self.left.key(), self.right.key())

    def __repr__(self) -> str:
        return f"BinaryOp({self.op!r}, {self.left!r}, {self.right!r})"


class UnaryOp(Expr):
    def __init__(self, op: str, operand: Expr):
        self.op = op.lower()
        self.operand = operand

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def bind(self, ctx: BindContext) -> RowFn:
        f = self.operand.bind(ctx)
        if self.op == "+":
            return f
        op = _UNARY.get(self.op)
        if op is None:
            raise PlanningError(f"unknown unary operator {self.op!r}")

        def null_safe(row: tuple) -> Any:
            v = f(row)
            return None if v is None else op(v)

        return _folded(self, null_safe)

    def key(self) -> tuple:
        return ("un", self.op, self.operand.key())

    def __repr__(self) -> str:
        return f"UnaryOp({self.op!r}, {self.operand!r})"


class IsNull(Expr):
    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def bind(self, ctx: BindContext) -> RowFn:
        f = self.operand.bind(ctx)
        if self.negated:
            return lambda row: f(row) is not None
        return lambda row: f(row) is None

    def key(self) -> tuple:
        return ("isnull", self.negated, self.operand.key())

    def __repr__(self) -> str:
        return f"IsNull({self.operand!r}, negated={self.negated})"


class Between(Expr):
    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.low, self.high)

    def bind(self, ctx: BindContext) -> RowFn:
        f = self.operand.bind(ctx)
        lo = self.low.bind(ctx)
        hi = self.high.bind(ctx)
        negated = self.negated

        def fn(row: tuple) -> Any:
            v, l, h = f(row), lo(row), hi(row)
            if v is None or l is None or h is None:
                return None
            result = l <= v <= h
            return not result if negated else result

        return fn

    def key(self) -> tuple:
        return ("between", self.negated, self.operand.key(), self.low.key(),
                self.high.key())

    def __repr__(self) -> str:
        return (f"Between({self.operand!r}, {self.low!r}, {self.high!r}, "
                f"negated={self.negated})")


class Like(Expr):
    def __init__(self, operand: Expr, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = _like_to_regex(pattern)

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def bind(self, ctx: BindContext) -> RowFn:
        f = self.operand.bind(ctx)
        regex = self._regex
        negated = self.negated

        def fn(row: tuple) -> Any:
            v = f(row)
            if v is None:
                return None
            result = regex.match(v) is not None
            return not result if negated else result

        return fn

    def key(self) -> tuple:
        return ("like", self.negated, self.pattern, self.operand.key())

    def __repr__(self) -> str:
        return (f"Like({self.operand!r}, {self.pattern!r}, "
                f"negated={self.negated})")


def _like_to_regex(pattern: str) -> "re.Pattern":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


class InList(Expr):
    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)

    def bind(self, ctx: BindContext) -> RowFn:
        f = self.operand.bind(ctx)
        item_fns = [i.bind(ctx) for i in self.items]
        negated = self.negated

        def fn(row: tuple) -> Any:
            v = f(row)
            if v is None:
                return None
            saw_null = False
            for g in item_fns:
                item = g(row)
                if item is None:
                    saw_null = True
                elif item == v:
                    return not negated
            # No match: NULL if some item is NULL (it might have been v).
            return None if saw_null else negated

        return fn

    def key(self) -> tuple:
        return (
            "inlist",
            self.negated,
            self.operand.key(),
            tuple(i.key() for i in self.items),
        )

    def __repr__(self) -> str:
        return (f"InList({self.operand!r}, {self.items!r}, "
                f"negated={self.negated})")


class InSubquery(Expr):
    """Uncorrelated ``expr IN (SELECT …)``.

    Bound by materializing the subquery once into a set (the planner passes
    a ``subquery_runner`` in the context, and the context runs it once
    however often it is bound); correlated subqueries are not
    supported and fail at bind time with a clear message.  ``sql`` is the
    subquery's source text: ``key()`` identifies the subquery by it, and
    ``repr`` shows it on one line.
    """

    def __init__(self, operand: Expr, subquery: "Select", negated: bool = False,
                 sql: str = ""):
        self.operand = operand
        self.subquery = subquery
        self.negated = negated
        self.sql = sql

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def bind(self, ctx: BindContext) -> RowFn:
        rows = ctx.subquery_rows(self.subquery)
        if rows and len(rows[0]) != 1:
            raise PlanningError("IN subquery must return exactly one column")
        values = {r[0] for r in rows}
        found = not self.negated
        # No match is NULL when the subquery returned a NULL; a NULL
        # operand is NULL too, unless the subquery returned no row.
        missing = None if None in values else self.negated
        null_operand = None if values else self.negated
        values.discard(None)
        f = self.operand.bind(ctx)

        def fn(row: tuple) -> Any:
            v = f(row)
            if v is None:
                return null_operand
            return found if v in values else missing

        return fn

    def key(self) -> tuple:
        return ("insub", self.negated, self.operand.key(), self.sql)

    def __repr__(self) -> str:
        text = " ".join(self.sql.split())  # one line, for EXPLAIN
        return f"InSubquery({self.operand!r}, {text!r}, negated={self.negated})"


class FuncCall(Expr):
    """Scalar function call (``year(d)``, ``abs(x)``, …)."""

    def __init__(self, name: str, args: Sequence[Expr]):
        self.name = name.lower()
        self.args = list(args)

    def children(self) -> Sequence[Expr]:
        return tuple(self.args)

    def bind(self, ctx: BindContext) -> RowFn:
        impl = resolve_function(self.name, len(self.args))
        arg_fns = [a.bind(ctx) for a in self.args]
        return lambda row: impl(*[f(row) for f in arg_fns])

    def _column_form(self, ctx: BindContext) -> ColumnFn:
        if not self.args:
            return Expr._column_form(self, ctx)
        impl = resolve_function(self.name, len(self.args))
        arg_cols = [a._column_form(ctx) for a in self.args]
        return lambda rows: list(map(impl, *[c(rows) for c in arg_cols]))

    def key(self) -> tuple:
        return ("func", self.name, tuple(a.key() for a in self.args))

    def __repr__(self) -> str:
        return f"FuncCall({self.name!r}, {self.args!r})"


class AggCall(Expr):
    """Aggregate function call; evaluated by aggregation operators only."""

    def __init__(self, name: str, args: Sequence[Expr], star: bool = False,
                 distinct: bool = False):
        self.name = name.lower()
        self.args = list(args)
        self.star = star
        self.distinct = distinct

    def children(self) -> Sequence[Expr]:
        return tuple(self.args)

    def bind(self, ctx: BindContext) -> RowFn:
        raise PlanningError(
            f"aggregate {self.name}() used outside an aggregation context"
        )

    def key(self) -> tuple:
        return (
            "agg",
            self.name,
            self.star,
            self.distinct,
            tuple(a.key() for a in self.args),
        )

    def __repr__(self) -> str:
        inner = "*" if self.star else ", ".join(map(repr, self.args))
        return f"AggCall({self.name}({inner}))"


class Case(Expr):
    """Searched ``CASE WHEN cond THEN value … [ELSE value] END``.

    The simple form (``CASE operand WHEN literal THEN …``) is desugared by
    the parser into the searched form with equality conditions.
    """

    def __init__(self, whens: Sequence[Tuple[Expr, Expr]],
                 else_: Optional[Expr] = None):
        self.whens = [(c, v) for c, v in whens]
        self.else_ = else_

    def children(self) -> Sequence[Expr]:
        out: List[Expr] = []
        for cond, value in self.whens:
            out.append(cond)
            out.append(value)
        if self.else_ is not None:
            out.append(self.else_)
        return out

    def bind(self, ctx: BindContext) -> RowFn:
        pairs = [(c.bind(ctx), v.bind(ctx)) for c, v in self.whens]
        else_fn = self.else_.bind(ctx) if self.else_ is not None else None

        def fn(row: tuple) -> Any:
            for cond_fn, value_fn in pairs:
                if cond_fn(row) is True:
                    return value_fn(row)
            return else_fn(row) if else_fn is not None else None

        return fn

    def key(self) -> tuple:
        return (
            "case",
            tuple((c.key(), v.key()) for c, v in self.whens),
            self.else_.key() if self.else_ is not None else None,
        )

    def __repr__(self) -> str:
        return f"Case({self.whens!r}, else_={self.else_!r})"


class PostAggRef(Expr):
    """Reference into the aggregate operator's output row (planner-internal)."""

    def __init__(self, index: int):
        self.index = index

    def bind(self, ctx: BindContext) -> RowFn:
        return operator.itemgetter(self.index)

    def key(self) -> tuple:
        return ("postagg", self.index)

    def __repr__(self) -> str:
        return f"PostAggRef({self.index})"


def bind_tuple(exprs: Sequence[Expr],
               ctx: BindContext) -> Callable[[tuple], tuple]:
    """``exprs`` bound as one ``row -> tuple`` callable, equal to
    ``tuple(e.bind(ctx)(row) for e in exprs)``: one C call for bare
    references — columns and aggregate outputs — (a one-item slice for
    one, rows being tuples), else one tuple built over the bound
    closures."""
    if exprs and all(isinstance(e, (ColumnRef, PostAggRef)) for e in exprs):
        idx = [e.index if isinstance(e, PostAggRef)
               else ctx.schema.resolve(e.name, e.qualifier) for e in exprs]
        if len(idx) == 1:
            return operator.itemgetter(slice(idx[0], idx[0] + 1))
        return operator.itemgetter(*idx)
    fns = [e.bind(ctx) for e in exprs]
    if len(fns) == 1:
        (fn,) = fns
        return lambda row: (fn(row),)
    return lambda row: tuple([f(row) for f in fns])


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
class SelectItem:
    def __init__(self, expr: Expr, alias: Optional[str] = None):
        self.expr = expr
        self.alias = alias.lower() if alias else None

    def output_name(self, position: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, AggCall):
            return self.expr.name
        if isinstance(self.expr, FuncCall):
            return self.expr.name
        return f"col{position}"

    def __repr__(self) -> str:
        return f"SelectItem({self.expr!r}, alias={self.alias!r})"


class TableSource:
    """A named table in FROM."""

    def __init__(self, name: str, alias: Optional[str] = None):
        self.name = name.lower()
        self.alias = (alias or name).lower()


class SubquerySource:
    """A parenthesized sub-select in FROM (requires an alias)."""

    def __init__(self, select: "Select", alias: str):
        self.select = select
        self.alias = alias.lower()


class FromItem:
    """One FROM entry; ``join_type`` is None for the first / comma-joined
    items and ``"inner"`` (with optional ``condition``) for JOIN clauses."""

    def __init__(self, source, join_type: Optional[str] = None,
                 condition: Optional[Expr] = None):
        self.source = source
        self.join_type = join_type
        self.condition = condition


class SimilaritySpec:
    """The parsed GROUP BY similarity clause (paper §4 syntax).

    ``partition_by`` is our extension: equality keys that split the input
    before similarity grouping runs independently within each partition
    (``… WITHIN ε [ON-OVERLAP …] PARTITION BY dept``).
    """

    def __init__(self, mode: str, metric: str, eps: Expr,
                 on_overlap: Optional[str] = None,
                 partition_by: Optional[List[Expr]] = None):
        self.mode = mode  # "all" | "any"
        self.metric = metric  # "l2" | "linf"
        self.eps = eps
        self.on_overlap = on_overlap  # only for mode == "all"
        self.partition_by = partition_by or []

    def __repr__(self) -> str:
        return (
            f"SimilaritySpec(mode={self.mode!r}, metric={self.metric!r}, "
            f"on_overlap={self.on_overlap!r})"
        )


class Similarity1DSpec:
    """The 1-D similarity grouping clauses (ICDE 2009 operator family).

    ``kind`` is ``"segment"`` (MAXIMUM-ELEMENT-SEPARATION, with optional
    MAXIMUM-GROUP-DIAMETER) or ``"around"`` (GROUP AROUND a list of central
    points, with optional MAXIMUM-GROUP-DIAMETER).
    """

    def __init__(self, kind: str, separation: Optional[Expr] = None,
                 diameter: Optional[Expr] = None,
                 centers: Optional[List[Expr]] = None):
        self.kind = kind
        self.separation = separation
        self.diameter = diameter
        self.centers = centers or []

    def __repr__(self) -> str:
        return f"Similarity1DSpec(kind={self.kind!r})"


class AroundNDSpec:
    """Multi-dimensional ``GROUP BY x, y AROUND ((…), …) [WITHIN r]``."""

    def __init__(self, centers: List[List[Expr]], metric: str = "l2",
                 radius: Optional[Expr] = None):
        self.centers = centers
        self.metric = metric
        self.radius = radius

    def __repr__(self) -> str:
        return f"AroundNDSpec({len(self.centers)} centres, {self.metric})"


class OrderItem:
    def __init__(self, expr: Expr, ascending: bool = True):
        self.expr = expr
        self.ascending = ascending


class Select:
    def __init__(
        self,
        items: List[SelectItem],
        from_items: List[FromItem],
        where: Optional[Expr] = None,
        group_by: Optional[List[Expr]] = None,
        similarity: Optional[SimilaritySpec] = None,
        having: Optional[Expr] = None,
        order_by: Optional[List[OrderItem]] = None,
        limit: Optional[int] = None,
        distinct: bool = False,
    ):
        self.items = items
        self.from_items = from_items
        self.where = where
        self.group_by = group_by or []
        self.similarity = similarity
        self.having = having
        self.order_by = order_by or []
        self.limit = limit
        self.distinct = distinct


class Union:
    """``select UNION [ALL] select [UNION …]`` — a chain of selects."""

    def __init__(self, selects: List[Select], all_flags: List[bool]):
        if len(all_flags) != len(selects) - 1:
            raise ParseError("need one ALL flag per UNION")
        self.selects = selects
        self.all_flags = all_flags


class ColumnDef:
    def __init__(self, name: str, type_name: str):
        self.name = name
        self.type_name = type_name


class CreateTable:
    def __init__(self, name: str, columns: List[ColumnDef],
                 if_not_exists: bool = False):
        self.name = name
        self.columns = columns
        self.if_not_exists = if_not_exists


class CreateIndex:
    def __init__(self, name: str, table: str, column: str,
                 if_not_exists: bool = False):
        self.name = name
        self.table = table
        self.column = column
        self.if_not_exists = if_not_exists


class DropIndex:
    def __init__(self, name: str, table: str):
        self.name = name
        self.table = table


class DropTable:
    def __init__(self, name: str, if_exists: bool = False):
        self.name = name
        self.if_exists = if_exists


class Insert:
    def __init__(self, table: str, rows: List[List[Expr]],
                 columns: Optional[List[str]] = None):
        self.table = table
        self.rows = rows
        self.columns = columns


class Explain:
    """``EXPLAIN [ANALYZE] <query>`` — plan (and optionally run) a query."""

    def __init__(self, query, analyze: bool = False):
        self.query = query
        self.analyze = analyze


class Analyze:
    """``ANALYZE [table]`` — collect planner statistics (all tables when
    no table name is given), PostgreSQL-style."""

    def __init__(self, table: Optional[str] = None):
        self.table = table
