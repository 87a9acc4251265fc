"""sqlite3 as an oracle for the engine's relational core.

The same rows go into a :class:`~repro.engine.database.Database` and an
in-memory sqlite3 database, the same statement runs on both, and the two
results must be equal as multisets (and, under ORDER BY, in the order of
their sort keys).  The inputs:

* generated tables of an int, a float and a text column, with NULLs,
  duplicates, ``-0.0`` / ``0.0`` and ``±inf``; statements group over 0, 1
  and 2 keys (plain columns and expressions), with every aggregate plain
  and DISTINCT, with HAVING, and over empty input;
* two such tables joined (inner, LEFT, hash and nested-loop, NULL join
  keys), chained by ``UNION`` / ``UNION ALL`` (mixed chains too),
  sorted by ORDER BY over NULLs, ascending and descending, with and
  without LIMIT, and filtered by ``IN`` / ``NOT IN`` over a list or a
  subquery that holds a NULL;
* the Table 2 statements without a similarity clause (Q1, GB1–GB3) on a
  small TPC-H scale.

Floats are compared with ``math.isclose``: sqlite may sum in another
order (newer versions compensate).  sqlite cannot store NaN (it becomes
NULL), so the generated floats have none.  Where the dialects differ on
purpose (see ``docs/sql_dialect.md``), the sqlite side is written to
mean what the engine means, and the two differences are named below:

* ``%`` is the floored modulo (the result takes the divisor's sign);
  sqlite's is truncated, so ``a % b`` becomes ``((a % b) + b) % b``;
* a float ``sum``/``avg`` whose IEEE value is NaN (``+inf`` plus
  ``-inf``) is NaN in the engine and NULL in sqlite.
"""

import math
import re
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.workloads import queries as Q
from repro.workloads.tpch import TPCHGenerator

#: (engine expression, the sqlite expression that means the same).
KEYS = {
    "i": "i",
    "x": "x",
    "s": "s",
    "i % 3": "((i % 3) + 3) % 3",
    "x * 2": "x * 2",
    "length(s)": "length(s)",
}

KEY_SETS = [(), ("i",), ("x",), ("s",), ("i % 3",), ("length(s)",),
            ("s", "i"), ("x", "i % 3"), ("x * 2", "s")]


def _aggregates():
    calls = ["count(*)"]
    for distinct in ("", "DISTINCT "):
        for col in ("i", "x", "s"):
            calls += [f"count({distinct}{col})", f"min({distinct}{col})",
                      f"max({distinct}{col})"]
        for col in ("i", "x"):
            calls += [f"sum({distinct}{col})", f"avg({distinct}{col})"]
    return calls


AGGREGATES = _aggregates()

#: (WHERE, HAVING) around the GROUP BY; ``i`` never exceeds 20, so the
#: second form aggregates over empty input.
SHAPES = [("", ""), (" WHERE i > 100", ""),
          ("", " HAVING count(*) > 1 AND (sum(i) IS NULL OR sum(i) > -5)")]


def statements():
    """``(engine sql, sqlite sql)`` for every key set and shape."""
    for keys in KEY_SETS:
        for where, having in SHAPES:
            parts = {}
            for side, spell in (("engine", lambda k: k),
                                ("sqlite", KEYS.__getitem__)):
                keyed = [spell(k) for k in keys]
                sql = (f"SELECT {', '.join(keyed + AGGREGATES)} "
                       f"FROM t{where}")
                if keys:
                    sql += f" GROUP BY {', '.join(keyed)}"
                parts[side] = sql + having
            yield parts["engine"], parts["sqlite"]


def same_value(got, want) -> bool:
    """``got`` (engine) equals ``want`` (sqlite): same type, floats
    close, and an engine NaN where sqlite says NULL."""
    if isinstance(got, float) and math.isnan(got):
        return want is None
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    return got == want


def assert_same_multiset(got, want, sql):
    assert len(got) == len(want), (sql, got, want)
    remaining = list(want)
    for row in got:
        for j, candidate in enumerate(remaining):
            if len(candidate) == len(row) and all(
                    map(same_value, row, candidate)):
                del remaining[j]
                break
        else:
            pytest.fail(f"{sql}\nengine row {row!r} not in sqlite's "
                        f"{remaining!r}")


class TestGeneratedTables:
    ints = st.one_of(st.none(), st.integers(-20, 20))
    floats = st.one_of(
        st.none(),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.sampled_from([0.0, -0.0, 0.5, 1.5, math.inf, -math.inf]),
    )
    texts = st.one_of(st.none(), st.text(alphabet="abAB é", max_size=3))

    @given(rows=st.lists(st.tuples(ints, floats, texts), max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_engine_and_sqlite_agree(self, rows):
        db = Database()
        db.execute("CREATE TABLE t (i int, x float, s text)")
        db.insert("t", rows)
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (i INTEGER, x REAL, s TEXT)")
        lite.executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        for engine_sql, sqlite_sql in statements():
            assert_same_multiset(db.query(engine_sql).rows,
                                 lite.execute(sqlite_sql).fetchall(),
                                 engine_sql)
        lite.close()

    def test_scalar_aggregate_over_empty_input_is_one_row(self):
        db = Database()
        db.execute("CREATE TABLE t (i int, x float, s text)")
        lite = sqlite3.connect(":memory:")
        lite.execute("CREATE TABLE t (i INTEGER, x REAL, s TEXT)")
        for engine_sql, sqlite_sql in statements():
            want = lite.execute(sqlite_sql).fetchall()
            assert_same_multiset(db.query(engine_sql).rows, want, engine_sql)
            assert len(want) == (0 if "GROUP BY" in engine_sql
                                 or "HAVING" in engine_sql else 1)


ROWS = st.lists(st.tuples(TestGeneratedTables.ints, TestGeneratedTables.floats,
                          TestGeneratedTables.texts), max_size=12)


def _two_tables(t_rows, u_rows):
    """``t`` and ``u`` (both ``i int, x float, s text``) in both engines."""
    db = Database()
    lite = sqlite3.connect(":memory:")
    for name, rows in (("t", t_rows), ("u", u_rows)):
        db.execute(f"CREATE TABLE {name} (i int, x float, s text)")
        db.insert(name, rows)
        lite.execute(f"CREATE TABLE {name} (i INTEGER, x REAL, s TEXT)")
        lite.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
    return db, lite


JOINS = [
    # equi-joins (hash joins), NULL keys never match
    "SELECT t.i, t.x, u.s FROM t JOIN u ON t.i = u.i",
    "SELECT t.s, u.x FROM t INNER JOIN u ON t.x = u.x",
    "SELECT t.i, u.i, u.x FROM t JOIN u ON t.i = u.i AND t.s = u.s",
    "SELECT t.i, u.s FROM t, u WHERE t.i = u.i AND u.x > 0",
    "SELECT t.i, t.x, u.x FROM t JOIN u ON t.i = u.i AND t.x > u.x",
    # LEFT joins: unmatched and NULL-keyed left rows pad with NULLs
    "SELECT t.i, t.s, u.i, u.x FROM t LEFT JOIN u ON t.i = u.i",
    "SELECT t.i, u.x FROM t LEFT OUTER JOIN u ON t.i = u.i AND u.x > 0",
    "SELECT t.x, u.s FROM t LEFT JOIN u ON t.x = u.x WHERE u.s IS NULL",
    "SELECT t.i, t.s, u.x FROM t LEFT JOIN u "
    "ON t.i = u.i AND t.s = u.s AND t.x < u.x",
    # non-equi conditions (nested loops)
    "SELECT t.i, u.i FROM t JOIN u ON t.i < u.i",
    "SELECT t.i, u.i FROM t LEFT JOIN u ON t.x <= u.x",
    # an equality between an int and a float column
    "SELECT t.i, u.x FROM t JOIN u ON t.i = u.x",
    # ... probed by the float side, NULL keys on both, left rows kept
    "SELECT t.x, t.s, u.i FROM t LEFT JOIN u ON t.x = u.i",
]

UNIONS = [
    "SELECT i FROM t UNION SELECT i FROM u",
    "SELECT i FROM t UNION ALL SELECT i FROM u",
    "SELECT i, s FROM t UNION SELECT i, s FROM u",
    "SELECT x FROM t UNION SELECT x FROM u UNION SELECT x FROM t",
    # mixed chains associate to the left
    "SELECT i FROM t UNION SELECT i FROM u UNION ALL SELECT i FROM t",
    "SELECT i FROM t UNION ALL SELECT i FROM u UNION SELECT i FROM t",
    "SELECT s FROM t UNION ALL SELECT s FROM u UNION ALL SELECT s FROM t "
    "UNION SELECT s FROM u",
    "SELECT i, x FROM t WHERE i > 0 UNION ALL SELECT i, x FROM u "
    "UNION SELECT i, x FROM t WHERE x < 0",
]

#: ``(statement, positions of its ORDER BY keys in the select list)``.
ORDERS = [
    ("SELECT i, x, s FROM t ORDER BY i", [0]),
    ("SELECT i, x, s FROM t ORDER BY i DESC", [0]),
    ("SELECT i, x, s FROM t ORDER BY x", [1]),
    ("SELECT i, x, s FROM t ORDER BY x DESC, i", [1, 0]),
    ("SELECT i, x, s FROM t ORDER BY s DESC, i DESC, x", [2, 0, 1]),
    ("SELECT i, x, s FROM t ORDER BY 3, 2 DESC", [2, 1]),
    ("SELECT i, x FROM t ORDER BY i DESC LIMIT 4", [0]),
    ("SELECT s, i FROM t ORDER BY s LIMIT 3", [0]),
    ("SELECT i, s FROM t ORDER BY s DESC, i LIMIT 4", [1, 0]),
    ("SELECT t.i, u.x FROM t LEFT JOIN u ON t.i = u.i ORDER BY u.x, t.i",
     [1, 0]),
]


#: IN / NOT IN with a NULL among the candidates: no match is NULL, so
#: NOT IN keeps no row; a NULL operand is NULL, unless the subquery
#: returns no row (``u.i`` never exceeds 20), when IN is false.
IN_NULL = [
    "SELECT i, s FROM t WHERE i IN (1, -2, NULL)",
    "SELECT i, s FROM t WHERE i NOT IN (1, -2, NULL)",
    "SELECT i, s FROM t WHERE i IN (SELECT i FROM u)",
    "SELECT i, s FROM t WHERE i NOT IN (SELECT i FROM u)",
    "SELECT i, s FROM t WHERE (i NOT IN (1, NULL)) IS NULL",
    "SELECT i, s FROM t WHERE (x IN (SELECT x FROM u)) IS NULL",
    "SELECT i, s FROM t WHERE i NOT IN (SELECT i FROM u WHERE i > 100)",
]


def assert_same_order(got, want, keys, sql):
    """Both results list their sort keys in the same sequence."""
    assert len(got) == len(want), (sql, got, want)
    for g, w in zip(got, want):
        assert all(same_value(g[k], w[k]) for k in keys), (sql, got, want)


class TestJoinsUnionsOrder:
    @given(t_rows=ROWS, u_rows=ROWS)
    @settings(max_examples=40, deadline=None)
    def test_joins_agree(self, t_rows, u_rows):
        db, lite = _two_tables(t_rows, u_rows)
        for sql in JOINS:
            assert_same_multiset(db.query(sql).rows,
                                 lite.execute(sql).fetchall(), sql)
        lite.close()

    @given(t_rows=ROWS, u_rows=ROWS)
    @settings(max_examples=40, deadline=None)
    def test_unions_agree(self, t_rows, u_rows):
        db, lite = _two_tables(t_rows, u_rows)
        for sql in UNIONS:
            assert_same_multiset(db.query(sql).rows,
                                 lite.execute(sql).fetchall(), sql)
        lite.close()

    @given(t_rows=ROWS, u_rows=ROWS)
    @settings(max_examples=40, deadline=None)
    def test_in_with_a_null_candidate_agrees(self, t_rows, u_rows):
        db, lite = _two_tables(t_rows, u_rows + [(None, None, None)])
        for sql in IN_NULL:
            assert_same_multiset(db.query(sql).rows,
                                 lite.execute(sql).fetchall(), sql)
        lite.close()

    @given(t_rows=ROWS, u_rows=ROWS)
    @settings(max_examples=40, deadline=None)
    def test_order_by_agrees_on_nulls(self, t_rows, u_rows):
        db, lite = _two_tables(t_rows, u_rows)
        for sql, keys in ORDERS:
            got = db.query(sql).rows
            want = lite.execute(sql).fetchall()
            assert_same_order(got, want, keys, sql)
            if "LIMIT" not in sql:
                assert_same_multiset(got, want, sql)
        lite.close()


def sqlite_spelling(sql: str) -> str:
    """A Table 2 statement in sqlite's date syntax (dates are ISO text)."""
    sql = re.sub(r"date '([\d-]+)' \+ interval '(\d+)' month",
                 r"date('\1', '+\2 months')", sql)
    sql = re.sub(r"date '([\d-]+)'", r"'\1'", sql)
    return re.sub(r"year\((\w+)\)",
                  r"CAST(strftime('%Y', \1) AS INTEGER)", sql)


class TestTable2:
    @pytest.fixture(scope="class")
    def engines(self):
        gen = TPCHGenerator(scale_factor=0.2, seed=7)
        db = Database()
        gen.populate(db)
        lite = sqlite3.connect(":memory:")
        for name, rows in gen.tables.items():
            schema = db.table(name).schema
            lite.execute(f"CREATE TABLE {name} "
                         f"({', '.join(c.name for c in schema)})")
            lite.executemany(
                f"INSERT INTO {name} VALUES "
                f"({', '.join('?' * len(schema))})",
                [tuple(v.isoformat() if hasattr(v, "isoformat") else v
                       for v in row) for row in rows])
        yield db, lite
        lite.close()

    # GB1 keeps its default threshold: at this scale it selects fewer
    # rows than its LIMIT, so ties in the ORDER BY cannot pick the rows.
    @pytest.mark.parametrize("sql", [Q.q1(), Q.gb1(), Q.gb2(), Q.gb3()],
                             ids=["q1", "gb1", "gb2", "gb3"])
    def test_engine_and_sqlite_agree(self, engines, sql):
        db, lite = engines
        got = db.query(sql).rows
        assert 0 < len(got) < 100, "every row selected, none cut by LIMIT"
        assert_same_multiset(got, lite.execute(sqlite_spelling(sql))
                             .fetchall(), sql)
