"""One contract, five clause forms.

``SimilarityAggregate`` (``repro.engine.executor.sgb``) spools, labels and
folds for every similarity clause; the clause nodes only draw the group
boundaries.  So whatever the base node promises — NULL keys skipped and
counted, ``rows_spooled``, DATE/Decimal keys, typed rejection of
non-numeric and non-finite keys, label −1 rows dropped, cancellation
mid-fold, output order — must hold identically for ε-All, ε-Any,
``MAXIMUM-ELEMENT-SEPARATION``, 1-D ``AROUND`` and N-D ``AROUND``.  Each
test below runs once per form.
"""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import (
    sgb_all,
    sgb_any,
    sgb_around,
    sgb_around_nd,
    sgb_segment,
)
from repro.core.cancel import CancelToken
from repro.engine import functions
from repro.engine.aggregates import _AGGREGATES
from repro.engine.database import Database
from repro.engine.executor.aggregate import build_agg_specs
from repro.engine.executor.base import PhysicalOperator
from repro.errors import (
    ExecutionError,
    InvalidCoordinateError,
    QueryCancelledError,
)
from repro.sql.ast_nodes import BindContext
from repro.sql.parser import parse_one

#: form -> (grouping clause over key expression(s) {a} [and {b}], the
#: array-API call that draws the same boundaries, EXPLAIN node name).
FORMS = {
    "eps-all": (
        "GROUP BY {a}, {b} DISTANCE-TO-ALL L2 WITHIN 1.5 "
        "ON-OVERLAP ELIMINATE",
        lambda pts: sgb_all(pts, 1.5, "l2", "eliminate"),
        "SimilarityGroupBy (distance-to-all",
    ),
    "eps-any": (
        "GROUP BY {a}, {b} DISTANCE-TO-ANY L2 WITHIN 1.5",
        lambda pts: sgb_any(pts, 1.5, "l2"),
        "SimilarityGroupBy (distance-to-any",
    ),
    "segment": (
        "GROUP BY {a} MAXIMUM-ELEMENT-SEPARATION 1.5",
        lambda pts: sgb_segment([p[0] for p in pts], 1.5),
        "SimilarityGroupBy1D (separation",
    ),
    "around-1d": (
        "GROUP BY {a} AROUND (0, 10) MAXIMUM-GROUP-DIAMETER 4",
        lambda pts: sgb_around([p[0] for p in pts], [0, 10], 4),
        "SimilarityGroupBy1D (around",
    ),
    "around-nd": (
        "GROUP BY {a}, {b} AROUND ((0, 0), (10, 0)) WITHIN 2",
        lambda pts: sgb_around_nd(pts, [(0, 0), (10, 0)], eps=2),
        "SimilarityGroupAround",
    ),
}

form = pytest.mark.parametrize("form", sorted(FORMS))
#: The forms that group on two keys, ``{a}`` and ``{b}``.
two_key_form = pytest.mark.parametrize(
    "form", sorted(f for f in FORMS if "{b}" in FORMS[f][0]))

#: (a, b) per row; ``n`` is the row number.  0, 2, 1 in that order makes
#: ε-All ELIMINATE drop rows; 3.5 and 30 are outside every AROUND radius.
KEYS = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (3.5, 0.0), (9.5, 0.0),
        (10.0, 0.0), (10.4, 0.0), (30.0, 0.0), (0.5, 0.0)]

#: Output of ``SELECT count(*), sum(n)`` over KEYS, pinned at the commit
#: before the nodes were merged: one row per group, in label order.
PINNED = {
    "eps-all": [(2, 8), (1, 3), (3, 15), (1, 7)],
    "eps-any": [(5, 14), (3, 15), (1, 7)],
    "segment": [(5, 14), (3, 15), (1, 7)],
    "around-1d": [(4, 11), (3, 15)],
    "around-nd": [(4, 11), (3, 15)],
}


def sql_for(form, select="count(*), sum(n)", a="a", b="b", where=""):
    return f"SELECT {select} FROM t {where} {FORMS[form][0].format(a=a, b=b)}"


def make_db(rows=None, a_type="float"):
    db = Database()
    db.execute(f"CREATE TABLE t (a {a_type}, b float, n int)")
    if rows is None:
        rows = [(a, b, n) for n, (a, b) in enumerate(KEYS)]
    db.insert("t", rows)
    return db


def folded(labels, ns):
    """``count(*), sum(n)`` per non-negative label, in label order."""
    groups = {}
    for label, n in zip(labels, ns):
        if label >= 0:
            count, total = groups.get(label, (0, 0))
            groups[label] = (count + 1, total + n)
    return [groups[label] for label in sorted(groups)]


class TestContract:
    @form
    def test_output_is_the_fold_of_the_array_labels(self, form):
        labels = FORMS[form][1](KEYS).labels
        rows = make_db().query(sql_for(form)).rows
        assert rows == folded(labels, range(len(KEYS)))
        assert rows == PINNED[form]  # group order unchanged by the merge

    @form
    def test_rows_in_no_group_are_absent(self, form):
        labels = FORMS[form][1](KEYS).labels
        grouped = sum(r[0] for r in make_db().query(sql_for(form)).rows)
        assert grouped == sum(1 for label in labels if label >= 0)
        if form in ("eps-all", "around-1d", "around-nd"):
            assert -1 in labels and grouped < len(KEYS)

    @form
    def test_null_key_is_skipped_and_counted(self, form):
        db = make_db()
        db.insert("t", [(None, 0.0, 100), (None, 5.0, 101)])
        assert db.query(sql_for(form)).rows == PINNED[form]
        result = db.analyze(sql_for(form))
        counters = result.node_counters()
        assert counters["rows_skipped_null"] == 2
        assert counters["rows_spooled"] == len(KEYS)
        assert f"rows_spooled={len(KEYS)}" in result.plan_text
        assert "rows_skipped_null=2" in db.explain_analyze(sql_for(form))

    @form
    def test_empty_input_yields_no_groups_and_no_counters(self, form):
        db = make_db()
        result = db.analyze(sql_for(form, where="WHERE n < 0"))
        assert result.rows == []
        assert "rows_spooled" not in result.node_counters()

    @form
    def test_explain_names_the_node(self, form):
        assert FORMS[form][2] in make_db().explain(sql_for(form))

    @form
    def test_date_key_counts_in_days(self, form):
        day0 = datetime.date(1, 1, 1)  # ordinal 1: a - 1 days later
        rows = [(day0 + datetime.timedelta(days=int(a * 2)), b, n)
                for n, (a, b) in enumerate(KEYS)]
        db = make_db(rows, a_type="date")
        points = [(float(r[0].toordinal()), r[1]) for r in rows]
        labels = FORMS[form][1](points).labels
        assert db.query(sql_for(form)).rows == folded(labels, range(len(rows)))

    @form
    def test_decimal_key_is_numeric(self, form, monkeypatch):
        monkeypatch.setitem(
            functions._FUNCTIONS, ("as_decimal", 1),
            lambda v: None if v is None else Decimal(repr(v)),
        )
        rows = make_db().query(sql_for(form, a="as_decimal(a)")).rows
        assert rows == PINNED[form]

    @form
    @pytest.mark.parametrize("a_type, value", [("bool", True), ("text", "x")])
    def test_non_numeric_key_is_an_execution_error(self, form, a_type, value):
        db = make_db([(value, 0.0, 0)], a_type=a_type)
        with pytest.raises(ExecutionError, match="numeric"):
            db.query(sql_for(form))

    @form
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_key_is_rejected(self, form, bad):
        db = make_db()
        db.insert("t", [(bad, 0.0, 99)])
        with pytest.raises(InvalidCoordinateError, match="non-finite"):
            db.query(sql_for(form))

    @form
    def test_cancel_mid_fold_aborts_within_a_stride(self, form, monkeypatch):
        n_rows = 4 * PhysicalOperator.CHECKPOINT_EVERY
        db = make_db([(float(i % 3), 0.0, i) for i in range(n_rows)])
        token = CancelToken()
        calls = {"n": 0}

        def poke(v):
            # Evaluated as an aggregate-argument column in the fold:
            # spooling and labelling are over by the time this trips the
            # token.
            calls["n"] += 1
            if calls["n"] == 50:
                token.cancel()
            return v

        monkeypatch.setitem(functions._FUNCTIONS, ("cancel_poke", 1), poke)
        with pytest.raises(QueryCancelledError):
            db.execute(sql_for(form, select="sum(cancel_poke(n))"),
                       cancel=token)
        assert 50 <= calls["n"] <= 50 + PhysicalOperator.CHECKPOINT_EVERY

    @form
    def test_cancel_mid_key_extraction_aborts_within_a_stride(
            self, form, monkeypatch):
        """A cancel fired while the spool evaluates a grouping key.

        The key columns are evaluated in ``CHECKPOINT_EVERY``-row chunks
        after the child is drained, away from the per-row check at the
        node edge.  SGB009 does not look inside comprehensions, so it
        cannot see whether a chunk is checked; this test is the guard.
        """
        n_rows = 4 * PhysicalOperator.CHECKPOINT_EVERY
        db = make_db([(float(i % 3), 0.0, i) for i in range(n_rows)])
        token = CancelToken()
        calls = {"n": 0}

        def poke(v):
            calls["n"] += 1
            if calls["n"] == 50:
                token.cancel()
            return v

        monkeypatch.setitem(functions._FUNCTIONS, ("cancel_poke", 1), poke)
        with pytest.raises(QueryCancelledError):
            db.execute(sql_for(form, a="cancel_poke(a)"), cancel=token)
        assert 50 <= calls["n"] <= 50 + PhysicalOperator.CHECKPOINT_EVERY


class TestKeyErrorOrder:
    """Which row a bad grouping key is reported for.

    The spool validates whole key columns, but a failure is reported by
    the one-row rule, rerun over the rows in order: the first offending
    row names the error, and a row that a NULL key skips raises nothing.
    Typed columns refuse mixed values at INSERT, so the keys are
    ``key(a, n, 'a')`` / ``key(b, n, 'b')``, which return
    ``bad[(column, n)]`` in place of row ``n``'s value where one is set.
    """

    @pytest.fixture
    def bad(self, monkeypatch):
        bad = {}
        monkeypatch.setitem(functions._FUNCTIONS, ("key", 3),
                            lambda v, n, column: bad.get((column, n), v))
        return bad

    @staticmethod
    def analyze(form, db=None):
        db = make_db() if db is None else db
        return db.analyze(sql_for(form, a="key(a, n, 'a')",
                                  b="key(b, n, 'b')"))

    @two_key_form
    @pytest.mark.parametrize("null_key", ["a", "b"])
    def test_null_beside_text_is_skipped(self, form, null_key, bad):
        db = make_db()
        db.insert("t", [(0.0, 0.0, 99)])
        text_key = "b" if null_key == "a" else "a"
        bad.update({(null_key, 99): None, (text_key, 99): "x"})
        result = self.analyze(form, db)
        assert result.rows == PINNED[form]
        assert result.node_counters()["rows_skipped_null"] == 1

    @form
    def test_nan_before_text_names_the_nan_row(self, form, bad):
        bad.update({("a", 3): float("nan"), ("a", 7): "x"})
        point = (float("nan"), KEYS[3][1])[:FORMS[form][0].count("{")]
        with pytest.raises(InvalidCoordinateError) as info:
            self.analyze(form)
        assert str(info.value) == (
            f"point {point!r} has a non-finite coordinate")

    @form
    def test_text_before_nan_names_the_text(self, form, bad):
        bad.update({("a", 3): "x", ("a", 7): float("nan")})
        with pytest.raises(ExecutionError) as info:
            self.analyze(form)
        assert not isinstance(info.value, InvalidCoordinateError)
        assert str(info.value) == "not a numeric grouping attribute: 'x'"

    @form
    def test_bool_among_floats_is_rejected(self, form, bad):
        bad[("a", 4)] = True
        with pytest.raises(ExecutionError) as info:
            self.analyze(form)
        assert str(info.value) == "not a numeric grouping attribute: True"


def row_fold(specs, pkey, rows, labels):
    """The SGB node's fold before it folded by column, verbatim but for
    the cancel checkpoint and ``AggSpec.step`` (since deleted), inlined as
    its one line: one accumulator set per label, stepped a row at a time
    in row order."""
    group_accs: dict = {}
    for row, label in zip(rows, labels):
        if label < 0:
            continue
        accs = group_accs.get(label)
        if accs is None:
            accs = group_accs[label] = [s.new_accumulator() for s in specs]
        for spec, acc in zip(specs, accs):
            acc.step(tuple(f(row) for f in spec.arg_fns))
    for label in sorted(group_accs):
        yield pkey + tuple(a.final() for a in group_accs[label])


def every_aggregate():
    """Each registered aggregate, plain and DISTINCT, over ``x`` (float)
    and ``y`` (int); the two-argument ones over both."""
    calls = ["count(*)"]
    for name, (_factory, arities) in sorted(_AGGREGATES.items()):
        for distinct in ("", "DISTINCT "):
            if 1 in arities:
                calls += [f"{name}({distinct}x)", f"{name}({distinct}y)"]
            if name == "st_polygon":
                calls.append(f"st_polygon({distinct}x, y)")
            elif name == "string_agg":
                calls.append(f"string_agg({distinct}y, '-')")
    return calls


class TestColumnFoldIsTheRowFold:
    """Every aggregate, through the SQL node, equals the row fold over the
    array API's labels with ``==``: no tolerance, so a float sum or
    average folded in another order fails."""

    AGGS = every_aggregate()
    grid = st.integers(0, 24).map(lambda k: k / 2)
    key = st.one_of(st.sampled_from(KEYS), st.tuples(grid, grid))
    x = st.one_of(st.none(), st.floats(-1e6, 1e6),
                  st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e-310]))
    y = st.one_of(st.none(), st.integers(-5, 5))

    def test_every_aggregate_is_listed(self):
        assert {call.split("(")[0] for call in self.AGGS} == set(_AGGREGATES)

    @form
    @pytest.mark.parametrize("backend", kernels.available_backends())
    @given(rows=st.lists(st.tuples(key, x, y), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_bit_identical(self, form, backend, rows):
        rows = [(a, b, x, y) for (a, b), x, y in rows]
        db = Database()
        db.execute("CREATE TABLE t (a float, b float, x float, y int)")
        db.insert("t", rows)
        sql = sql_for(form, select=", ".join(self.AGGS))
        table = db.table("t")
        specs = build_agg_specs([item.expr for item in parse_one(sql).items],
                                BindContext(table.schema))
        labels = FORMS[form][1]([row[:2] for row in table.rows]).labels
        with kernels.use_backend(backend):
            got = db.query(sql).rows
        assert got == list(row_fold(specs, (), table.rows, labels))


class TestHeadWrongAnswers:
    """Silent wrong answers at the parent commit, now typed errors: only
    the ε node used to reject non-finite grouping values."""

    @pytest.fixture
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (v float, w float)")
        db.insert("t", [(1.0, 0.0), (2.0, 0.0), (float("nan"), 0.0),
                        (9.0, 0.0), (float("inf"), 0.0)])
        return db

    def test_segment_nan_poisoned_the_sort(self, db):
        # answered [(4,), (1,)]: 9 grouped with 2 across a gap of 7
        with pytest.raises(InvalidCoordinateError):
            db.query("SELECT count(*) FROM t GROUP BY v "
                     "MAXIMUM-ELEMENT-SEPARATION 1.5")

    def test_around_1d_nan_passed_the_diameter_bound(self, db):
        # answered [(3,), (1,)]: NaN > r is false, so NaN joined centre 0
        with pytest.raises(InvalidCoordinateError):
            db.query("SELECT count(*) FROM t GROUP BY v "
                     "AROUND (0, 10) MAXIMUM-GROUP-DIAMETER 4")

    def test_around_nd_nan_passed_the_within_bound(self, db):
        with pytest.raises(InvalidCoordinateError):
            db.query("SELECT count(*) FROM t GROUP BY v, w "
                     "AROUND ((0, 0), (10, 0)) WITHIN 2")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_array_entry_points_reject_non_finite(self, bad):
        with pytest.raises(InvalidCoordinateError):
            sgb_segment([1, 2, bad, 9], 1.5)
        with pytest.raises(InvalidCoordinateError):
            sgb_around([1, bad], [0, 10], 4)
        with pytest.raises(InvalidCoordinateError):
            sgb_around([1, 2], [0, bad])
        with pytest.raises(InvalidCoordinateError):
            sgb_around_nd([(1, 0), (bad, 0)], [(0, 0)], eps=2)
        with pytest.raises(InvalidCoordinateError):
            sgb_around_nd([(1, 0)], [(0, 0), (0, bad)])


class TestAround1DIsTheNDOperator:
    """``sgb_around`` is ``sgb_around_nd`` at d = 1 (``linf``, radius =
    diameter / 2), including values exactly on the radius."""

    grid = st.integers(-40, 40).map(lambda k: k / 4)  # exact in binary

    @given(values=st.lists(grid, max_size=40),
           centers=st.lists(grid, min_size=1, max_size=5),
           diameter=st.one_of(st.none(), st.integers(0, 40).map(
               lambda k: k / 2)),
           metric=st.sampled_from(["linf", "l2", "l1"]))
    @settings(max_examples=150, deadline=None)
    def test_same_labels_and_points(self, values, centers, diameter, metric):
        if diameter is not None and centers:
            # a value sitting exactly max_diameter / 2 from a centre
            values = values + [centers[0] + diameter / 2,
                               centers[-1] - diameter / 2]
        one_d = sgb_around(values, centers, diameter)
        n_d = sgb_around_nd(
            [(v,) for v in values], [(c,) for c in centers],
            eps=None if diameter is None else diameter / 2, metric=metric,
        )
        assert one_d.labels == n_d.labels
        assert one_d.points == [(float(v),) for v in values]

    def test_value_on_the_radius_is_in(self):
        assert sgb_around([2.0, 2.0000001, -2.0], [0], 4).labels == [0, -1, 0]
