"""ORDER BY ... LIMIT semantics: the first n rows of the full sort,
including NULL placement and mixed-direction multi-key orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database


def make_db(rows):
    db = Database()
    db.execute("CREATE TABLE t (a int, b int)")
    db.insert("t", rows)
    return db


rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 5)),
        st.one_of(st.none(), st.integers(-5, 5)),
    ),
    max_size=30,
)


class TestKnownCases:
    def test_basic_topn(self):
        db = make_db([(3, 0), (1, 0), (2, 0)])
        assert db.query(
            "SELECT a FROM t ORDER BY a LIMIT 2"
        ).column("a") == [1, 2]

    def test_descending(self):
        db = make_db([(3, 0), (1, 0), (2, 0)])
        assert db.query(
            "SELECT a FROM t ORDER BY a DESC LIMIT 2"
        ).column("a") == [3, 2]

    def test_nulls_first_ascending(self):
        db = make_db([(3, 0), (None, 0), (1, 0)])
        assert db.query(
            "SELECT a FROM t ORDER BY a LIMIT 2"
        ).column("a") == [None, 1]

    def test_nulls_last_descending(self):
        db = make_db([(3, 0), (None, 0), (1, 0)])
        assert db.query(
            "SELECT a FROM t ORDER BY a DESC LIMIT 3"
        ).column("a") == [3, 1, None]

    def test_limit_larger_than_input(self):
        db = make_db([(2, 0), (1, 0)])
        assert db.query(
            "SELECT a FROM t ORDER BY a LIMIT 99"
        ).column("a") == [1, 2]

    def test_limit_zero(self):
        db = make_db([(1, 0)])
        assert db.query("SELECT a FROM t ORDER BY a LIMIT 0").rows == []

    def test_mixed_directions(self):
        db = make_db([(1, 1), (1, 2), (2, 1)])
        res = db.query("SELECT a, b FROM t ORDER BY a ASC, b DESC LIMIT 2")
        assert res.rows == [(1, 2), (1, 1)]


class TestEquivalenceWithSortLimit:
    @settings(max_examples=60, deadline=None)
    @given(rows=rows_strategy, limit=st.integers(0, 10),
           asc_a=st.booleans(), asc_b=st.booleans())
    def test_topn_equals_sort_then_limit(self, rows, limit, asc_a, asc_b):
        db = make_db(rows)
        da = "ASC" if asc_a else "DESC"
        dbdir = "ASC" if asc_b else "DESC"
        fused = db.query(
            f"SELECT a, b FROM t ORDER BY a {da}, b {dbdir} LIMIT {limit}"
        ).rows
        # rows are not necessarily unique, so compare against a manual
        # sort rather than a DISTINCT query
        def null_key(v, asc):
            return (v is not None, v)

        import functools

        def cmp(x, y):
            for idx, asc in ((0, asc_a), (1, asc_b)):
                ka, kb = null_key(x[idx], asc), null_key(y[idx], asc)
                if ka == kb:
                    continue
                if ka < kb:
                    return -1 if asc else 1
                return 1 if asc else -1
            return 0

        expected = sorted(rows, key=functools.cmp_to_key(cmp))[:limit]
        # ties make exact row order ambiguous; compare the key sequences
        fused_keys = [(r[0], r[1]) for r in fused]
        expected_keys = [(r[0], r[1]) for r in expected]
        assert sorted(map(repr, fused_keys)) == sorted(
            map(repr, expected_keys)
        )
        # and the output itself must be correctly ordered
        for x, y in zip(fused, fused[1:]):
            assert cmp(x, y) <= 0


class TestLimitStopsAtN:
    @pytest.mark.parametrize("order_by", ["", " ORDER BY a DESC"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_child_produces_exactly_n_rows(self, n, order_by):
        db = make_db([(i, 0) for i in range(5)])
        root = db.analyze(f"SELECT a FROM t{order_by} LIMIT {n}").metrics
        assert root["node"] == f"Limit {n}"
        (child,) = root["children"]
        assert child["rows"] == n
        # LIMIT 0 never starts its child.
        assert child["loops"] == (1 if n else 0)
