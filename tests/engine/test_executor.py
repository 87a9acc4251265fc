"""Direct physical-operator tests (bypassing the parser)."""

import operator

import pytest

from repro.engine.executor.aggregate import HashAggregate
from repro.engine.executor.relational import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
)
from repro.engine.executor.scans import SeqScan, ValuesScan
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.errors import PlanningError
from repro.sql.ast_nodes import (
    AggCall,
    BindContext,
    BinaryOp,
    ColumnRef,
    Literal,
    PostAggRef,
    bind_tuple,
)


def ctx_factory(schema):
    return BindContext(schema)


def values(rows, *cols):
    return ValuesScan(rows, Schema([Column(c, "any", "v") for c in cols]))


class TestScans:
    def test_seq_scan(self):
        t = Table("t", [("a", "int")])
        t.insert_many([(1,), (2,)])
        scan = SeqScan(t, "x")
        assert scan.rows() == [(1,), (2,)]
        assert scan.schema.resolve("a", "x") == 0

    def test_dual(self):
        assert ValuesScan([()], Schema([])).rows() == [()]


class TestFilterProject:
    def test_filter_keeps_only_true(self):
        plan = Filter(
            values([(1,), (None,), (3,)], "a"),
            BinaryOp(">", ColumnRef("a"), Literal(1)),
            ctx_factory,
        )
        # NULL comparison yields NULL, which is not True
        assert plan.rows() == [(3,)]

    def test_project_computes(self):
        plan = Project(
            values([(2, 3)], "a", "b"),
            [BinaryOp("*", ColumnRef("a"), ColumnRef("b"))],
            ["prod"],
            ctx_factory,
        )
        assert plan.rows() == [(6,)]
        assert plan.schema.names() == ["prod"]


NAN = float("nan")


def typed(values):
    """``values`` with types and reprs: ``1`` / ``1.0`` and two NaNs
    compare by what they are."""
    return [(type(v), repr(v)) for v in values]


@pytest.mark.parametrize("exprs", [
    [ColumnRef("b")],
    [ColumnRef("a"), ColumnRef("c")],
    [ColumnRef("c"), ColumnRef("a"), ColumnRef("c")],
    [BinaryOp("+", ColumnRef("a"), Literal(1)), ColumnRef("b")],
    [BinaryOp("*", Literal(2), Literal(3.0))],
    [Literal(None), ColumnRef("c"), BinaryOp("=", ColumnRef("a"),
                                             ColumnRef("b"))],
    [],
])
@pytest.mark.parametrize("row", [
    (1, 2.0, None), (None, NAN, 3), (1.0, 1, NAN), (NAN, None, -0.0),
])
def test_bind_tuple_equals_binding_each_expression(exprs, row):
    ctx = BindContext(Schema([Column(c, "any", "v") for c in "abc"]))
    got = bind_tuple(exprs, ctx)(row)
    assert type(got) is tuple
    assert typed(got) == typed(tuple(e.bind(ctx)(row) for e in exprs))


@pytest.mark.parametrize("row", [(1, None, 3), (None, 2, None), (4, 5, 6)])
@pytest.mark.parametrize("column", ["a", "b", "c"])
def test_bind_tuple_one_bare_column_is_a_c_slice(column, row):
    """One bare column binds to a one-column slice, built in C; it equals
    the closure it replaced, NULL included."""
    ctx = BindContext(Schema([Column(c, "any", "v") for c in "abc"]))
    key = bind_tuple([ColumnRef(column)], ctx)
    fn = ColumnRef(column).bind(ctx)
    assert type(key) is operator.itemgetter
    assert key(row) == (lambda r: (fn(r),))(row)
    assert type(key(row)) is tuple


@pytest.mark.parametrize("exprs", [
    [PostAggRef(1)],
    [PostAggRef(0), PostAggRef(2)],
    [PostAggRef(2), ColumnRef("a"), PostAggRef(2)],
])
@pytest.mark.parametrize("row", [(1, None, 3), (None, 2, None), (4, 5.0, NAN)])
def test_bind_tuple_bare_post_agg_refs_are_one_c_call(exprs, row):
    """References into an aggregate's output row, alone or beside bare
    columns, bind to one itemgetter equal to the closure form."""
    ctx = BindContext(Schema([Column(c, "any", "v") for c in "abc"]))
    key = bind_tuple(exprs, ctx)
    assert type(key) is operator.itemgetter
    assert type(key(row)) is tuple
    assert typed(key(row)) == typed(tuple(e.bind(ctx)(row) for e in exprs))


@pytest.mark.parametrize("refs", [[1], [0, 1, 2], [2, 0, 3, 1]])
def test_project_over_aggregate_equals_closure_form(refs):
    """A Project of bare references into an aggregation node's output
    rows binds in C and yields what the per-expression closures yield,
    NULL aggregate results and a one-column select list included."""
    agg = HashAggregate(
        values([(1, None), (1, None), (2, 3.0), (2, 5.0), (3, -1.0)],
               "k", "v"),
        [ColumnRef("k")],
        [AggCall("max", [ColumnRef("v")]), AggCall("count", [], star=True),
         AggCall("sum", [ColumnRef("v")])],
        ctx_factory,
    )
    exprs = [PostAggRef(i) for i in refs]
    plan = Project(agg, exprs, [f"c{i}" for i in range(len(refs))],
                   ctx_factory)
    assert type(plan._row) is operator.itemgetter
    fns = [e.bind(ctx_factory(agg.schema)) for e in exprs]
    expected = [tuple(f(r) for f in fns) for r in agg.rows()]
    assert typed(plan.rows()) == typed(expected)
    if refs == [1]:
        assert (None,) in plan.rows()  # the all-NULL group's max


class TestJoins:
    def test_nested_loop_cross(self):
        plan = NestedLoopJoin(
            values([(1,), (2,)], "a"), values([(10,), (20,)], "b"),
            None, ctx_factory,
        )
        assert sorted(plan.rows()) == [(1, 10), (1, 20), (2, 10), (2, 20)]

    def test_nested_loop_condition(self):
        plan = NestedLoopJoin(
            values([(1,), (2,)], "a"), values([(1,), (3,)], "b"),
            BinaryOp("<", ColumnRef("a"), ColumnRef("b")),
            ctx_factory,
        )
        assert sorted(plan.rows()) == [(1, 3), (2, 3)]

    def test_hash_join_basic(self):
        left = values([(1, "x"), (2, "y"), (3, "z")], "id", "name")
        right = values([(2, 20.0), (3, 30.0), (4, 40.0)], "rid", "val")
        plan = HashJoin(left, right, [ColumnRef("id")], [ColumnRef("rid")],
                        None, ctx_factory)
        assert sorted(plan.rows()) == [(2, "y", 2, 20.0), (3, "z", 3, 30.0)]

    def test_hash_join_null_keys_never_match(self):
        left = values([(None,), (1,)], "id")
        right = values([(None,), (1,)], "rid")
        plan = HashJoin(left, right, [ColumnRef("id")], [ColumnRef("rid")],
                        None, ctx_factory)
        assert plan.rows() == [(1, 1)]

    @pytest.mark.parametrize("outer", [False, True])
    def test_one_key_hash_join_drops_null_keys_on_both_sides(self, outer):
        # The key is the second column on both sides.
        left = values([("l0", None), ("l1", 1), ("l2", 2), ("l3", None)],
                      "tag", "id")
        right = values([("r0", None), ("r1", 1), ("r2", None), ("r3", 2)],
                       "rtag", "rid")
        plan = HashJoin(left, right, [ColumnRef("id")], [ColumnRef("rid")],
                        None, ctx_factory, outer=outer)
        matched = [("l1", 1, "r1", 1), ("l2", 2, "r3", 2)]
        if outer:
            matched = [("l0", None, None, None)] + matched + [
                ("l3", None, None, None)]
        assert plan.rows() == matched

    def test_hash_join_duplicates_multiply(self):
        left = values([(1,), (1,)], "id")
        right = values([(1,), (1,)], "rid")
        plan = HashJoin(left, right, [ColumnRef("id")], [ColumnRef("rid")],
                        None, ctx_factory)
        assert len(plan.rows()) == 4

    def test_hash_join_residual(self):
        left = values([(1, 5), (1, 50)], "id", "amount")
        right = values([(1, 10)], "rid", "cutoff")
        plan = HashJoin(
            left, right, [ColumnRef("id")], [ColumnRef("rid")],
            BinaryOp("<", ColumnRef("amount"), ColumnRef("cutoff")),
            ctx_factory,
        )
        assert plan.rows() == [(1, 5, 1, 10)]

    def test_hash_join_requires_keys(self):
        # SGB006: plan-construction invariants raise PlanningError (a
        # ReproError), not bare ValueError.
        with pytest.raises(PlanningError):
            HashJoin(values([], "a"), values([], "b"), [], [], None,
                     ctx_factory)


class TestSortLimitDistinct:
    def test_sort_multi_key(self):
        plan = Sort(
            values([(1, "b"), (2, "a"), (1, "a")], "n", "s"),
            [ColumnRef("n"), ColumnRef("s")], [True, True], ctx_factory,
        )
        assert plan.rows() == [(1, "a"), (1, "b"), (2, "a")]

    def test_sort_descending_and_nulls(self):
        plan = Sort(values([(2,), (None,), (1,)], "n"),
                    [ColumnRef("n")], [True], ctx_factory)
        assert plan.rows() == [(None,), (1,), (2,)]
        plan = Sort(values([(2,), (None,), (1,)], "n"),
                    [ColumnRef("n")], [False], ctx_factory)
        assert plan.rows() == [(2,), (1,), (None,)]

    def test_limit(self):
        plan = Limit(values([(i,) for i in range(10)], "a"), 3)
        assert plan.rows() == [(0,), (1,), (2,)]
        assert Limit(values([], "a"), 5).rows() == []

    def test_distinct_preserves_first_occurrence_order(self):
        plan = Distinct(values([(2,), (1,), (2,), (3,), (1,)], "a"))
        assert plan.rows() == [(2,), (1,), (3,)]

    def test_distinct_handles_lists(self):
        plan = Distinct(values([([1, 2],), ([1, 2],)], "a"))
        assert plan.rows() == [([1, 2],)]


class TestHashAggregate:
    def test_grouped(self):
        plan = HashAggregate(
            values([("a", 1), ("b", 2), ("a", 3)], "k", "v"),
            [ColumnRef("k")],
            [AggCall("sum", [ColumnRef("v")]),
             AggCall("count", [], star=True)],
            ctx_factory,
        )
        assert sorted(plan.rows()) == [("a", 4, 2), ("b", 2, 1)]

    def test_scalar_aggregate_empty_input(self):
        plan = HashAggregate(
            values([], "v"), [],
            [AggCall("count", [], star=True),
             AggCall("sum", [ColumnRef("v")])],
            ctx_factory,
        )
        assert plan.rows() == [(0, None)]

    def test_group_order_first_appearance(self):
        plan = HashAggregate(
            values([("z", 1), ("a", 1), ("z", 1)], "k", "v"),
            [ColumnRef("k")],
            [AggCall("count", [], star=True)],
            ctx_factory,
        )
        assert plan.rows() == [("z", 2), ("a", 1)]


class TestExplain:
    def test_tree_rendering(self):
        inner = values([(1,)], "a")
        plan = Limit(Distinct(inner), 5)
        text = plan.explain()
        assert "Limit 5" in text and "Distinct" in text
        assert text.index("Limit") < text.index("Distinct")
