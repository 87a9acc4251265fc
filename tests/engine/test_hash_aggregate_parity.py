"""The equality GROUP BY node against the row loop it replaced.

``HashAggregate`` drains its input, labels rows by key and folds each
group's argument columns.  :func:`row_loop` is the node's ``_execute``
from before that change, verbatim but for ``AggSpec.step``, which went
with it and is inlined here as its one line.  Every aggregate, plain and
DISTINCT, over keys that a dict merges (``1``/``1.0``/``True``,
``0.0``/``-0.0``) or keeps apart (NULL, two NaN objects) and over
NaN/±inf arguments, must give the same rows with the same float bits in
the same (first-seen) group order; so must all ten Table 2 statements.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.executor.aggregate import HashAggregate
from repro.engine.executor.scans import ValuesScan
from repro.engine.schema import Column, Schema
from repro.sql.ast_nodes import BindContext, ColumnRef
from repro.sql.parser import parse_one
from repro.workloads import queries as Q
from repro.workloads.tpch import TPCHGenerator
from tests.engine.test_similarity_contract import every_aggregate


def row_loop(self):
    """``HashAggregate._execute`` before the column fold."""
    groups = {}
    order = []
    key_fns = self._key_fns
    specs = self._specs
    for row in self.child:
        key = tuple(f(row) for f in key_fns)
        accs = groups.get(key)
        if accs is None:
            accs = [s.new_accumulator() for s in specs]
            groups[key] = accs
            order.append(key)
        for spec, acc in zip(specs, accs):
            acc.step(tuple(f(row) for f in spec.arg_fns))
    if not groups and self._n_keys == 0:
        # SQL scalar aggregate over empty input: one row of finals.
        accs = [s.new_accumulator() for s in specs]
        yield tuple(a.final() for a in accs)
        return
    for key in order:
        yield key + tuple(a.final() for a in groups[key])


def bits(value):
    """``value`` with floats as their IEEE bits and types made explicit,
    so ``1`` / ``1.0`` / ``True`` and ``0.0`` / ``-0.0`` differ.  A NaN is
    only NaN: which operand's sign and payload ``nan + -nan`` carries
    differs between CPython's specialised float add and
    ``float.__add__``, so not even the row loop repeats it once the
    interpreter has warmed up."""
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value)
                else struct.pack("d", value))
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [bits(v) for v in value])
    return (type(value).__name__, repr(value))


def outcome(rows_fn):
    try:
        return bits(list(rows_fn()))
    except Exception as exc:  # the type is compared
        return ("raised", type(exc).__name__)


AGGS = every_aggregate()
SCHEMA = Schema([Column(c, "any", "t") for c in ("k", "x", "y")])
CALLS = [item.expr for item in
         parse_one(f"SELECT {', '.join(AGGS)} FROM t").items]

NAN = float("nan")  # one object: rows holding it share a key
#: Keys a dict merges (1, 1.0, True; 0, 0.0, -0.0, False) or keeps apart
#: (NULL; NAN and a second NaN object; text).
KEYS = [None, 1, 1.0, True, 0, 0.0, -0.0, False, "a", NAN,
        float("nan"), math.inf]


def plan(rows, keys):
    return HashAggregate(ValuesScan(rows, SCHEMA),
                         [ColumnRef(k) for k in keys], CALLS, BindContext)


class TestEveryAggregate:
    x = st.one_of(st.none(), st.floats(-1e6, 1e6),
                  st.sampled_from([0.1, 0.2, -0.0, 1e-310, math.nan,
                                   math.inf, -math.inf]))
    y = st.one_of(st.none(), st.integers(-5, 5))
    rows = st.lists(st.tuples(st.sampled_from(KEYS), x, y), max_size=30)

    @pytest.mark.parametrize("keys", [(), ("k",), ("k", "y")],
                             ids=["scalar", "one-key", "two-keys"])
    @given(rows=rows)
    @settings(max_examples=60, deadline=None)
    def test_rows_and_bits_are_the_row_loop(self, keys, rows):
        node = plan(rows, keys)
        want = outcome(lambda: row_loop(node))
        assert outcome(node.rows) == want
        if want[0] != "raised":
            got_keys = [row[:len(keys)] for row in node.rows()]
            first_seen = list(dict.fromkeys(
                tuple(row[SCHEMA.resolve(k, None)] for k in keys)
                for row in rows))
            assert got_keys == (first_seen if keys else [()])

    def test_merged_keys_emit_the_first_seen_value(self):
        rows = [(True, 1.0, 1), (1, 2.0, 2), (1.0, 3.0, 3),
                (-0.0, 1.0, 1), (0.0, 1.0, 1), (None, 1.0, 1),
                (None, 2.0, 2)]
        got = plan(rows, ("k",)).rows()
        assert [bits(r[0]) for r in got] == [bits(True), bits(-0.0),
                                             bits(None)]
        assert bits(got) == bits(list(row_loop(plan(rows, ("k",)))))

    def test_empty_input(self):
        assert bits(plan([], ()).rows()) == bits(list(row_loop(plan([], ()))))
        assert len(plan([], ()).rows()) == 1
        assert plan([], ("k",)).rows() == []


TABLE2 = {
    "q1": Q.q1(),
    "gb1": Q.gb1(quantity_threshold=60),
    "gb2": Q.gb2(),
    "gb3": Q.gb3(),
    "sgb1": Q.sgb1(eps=50000),
    "sgb2": Q.sgb2(eps=50000),
    "sgb3": Q.sgb3(eps=5000, on_overlap="eliminate"),
    "sgb4": Q.sgb4(eps=5000),
    "sgb5": Q.sgb5(eps=2000, on_overlap="form-new-group"),
    "sgb6": Q.sgb6(eps=2000),
}


class TestTable2:
    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        TPCHGenerator(scale_factor=0.3, seed=7).populate(db)
        db.update_statistics()
        return db

    @pytest.mark.parametrize("name", sorted(TABLE2))
    def test_rows_are_the_row_loop(self, db, name, monkeypatch):
        got = db.query(TABLE2[name]).rows
        monkeypatch.setattr(HashAggregate, "_execute", row_loop)
        want = db.query(TABLE2[name]).rows
        assert got, "the statement must select something at this scale"
        assert got == want
        assert bits(got) == bits(want)
