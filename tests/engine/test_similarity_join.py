"""Similarity join tests: the ε-distance join of the SimDB line (§2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from tests.conftest import dist


@pytest.fixture
def db():
    d = Database()
    d.execute("CREATE TABLE stores (sid int, sx float, sy float)")
    d.execute("CREATE TABLE clients (cid int, cx float, cy float)")
    d.insert("stores", [(1, 0, 0), (2, 10, 10), (3, 5, 0)])
    d.insert("clients", [(1, 0.5, 0.5), (2, 9.5, 10), (3, 5, 0.9),
                         (4, 50, 50)])
    return d


class TestPlanAndSemantics:
    def test_plan_uses_similarity_join(self, db):
        plan = db.explain(
            "SELECT sid FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) <= 1"
        )
        assert "SimilarityJoin (l2 within 1.0)" in plan
        assert "NestedLoopJoin" not in plan

    def test_l2_pairs(self, db):
        res = db.query(
            "SELECT sid, cid FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) <= 1 ORDER BY sid, cid"
        )
        assert res.rows == [(1, 1), (2, 2), (3, 3)]

    def test_linf_vs_l2_boundary(self, db):
        # (0,0)-(0.5,0.5): L-inf 0.5 matches, L2 ~0.707 does not;
        # (10,10)-(9.5,10): 0.5 under both metrics
        linf = db.query(
            "SELECT count(*) FROM stores, clients "
            "WHERE dist_linf(sx, sy, cx, cy) <= 0.6"
        ).scalar()
        l2 = db.query(
            "SELECT count(*) FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) <= 0.6"
        ).scalar()
        assert linf == 2 and l2 == 1

    def test_flipped_operands_recognized(self, db):
        plan = db.explain(
            "SELECT sid FROM stores, clients "
            "WHERE 1 >= dist_l2(cx, cy, sx, sy)"
        )
        assert "SimilarityJoin" in plan

    def test_swapped_sides_recognized(self, db):
        # coordinates listed right-side-first
        res = db.query(
            "SELECT sid, cid FROM stores, clients "
            "WHERE dist_l2(cx, cy, sx, sy) <= 1 ORDER BY sid"
        )
        assert [r[0] for r in res] == [1, 2, 3]

    def test_residual_conjunct_applies(self, db):
        res = db.query(
            "SELECT sid, cid FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) <= 1 AND cid > 1 ORDER BY sid"
        )
        assert res.rows == [(2, 2), (3, 3)]

    def test_strict_less_than_not_rewritten(self, db):
        # `<` has open-boundary semantics; it falls back to a filterable
        # join rather than the closed-boundary SimilarityJoin
        plan = db.explain(
            "SELECT sid FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) < 1"
        )
        assert "SimilarityJoin" not in plan
        res = db.query(
            "SELECT count(*) FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) < 1"
        )
        assert res.scalar() == 3

    def test_null_coordinates_never_match(self, db):
        db.execute("INSERT INTO clients VALUES (9, NULL, 0)")
        res = db.query(
            "SELECT count(*) FROM stores, clients "
            "WHERE dist_l2(sx, sy, cx, cy) <= 1000"
        )
        assert res.scalar() == 3 * 4  # the NULL client joins nothing

    def test_scalar_use_still_works(self, db):
        assert db.query("SELECT dist_l2(0, 0, 3, 4)").scalar() == 5.0
        assert db.query("SELECT dist_linf(0, 0, 3, 4)").scalar() == 4.0


class TestAgainstNestedLoopOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        left=st.lists(st.tuples(st.floats(0, 10, allow_nan=False),
                                st.floats(0, 10, allow_nan=False)),
                      max_size=15),
        right=st.lists(st.tuples(st.floats(0, 10, allow_nan=False),
                                 st.floats(0, 10, allow_nan=False)),
                       max_size=15),
        eps=st.floats(0.2, 5, allow_nan=False),
    )
    def test_matches_cartesian_filter(self, left, right, eps):
        d = Database()
        d.execute("CREATE TABLE l (i int, x float, y float)")
        d.execute("CREATE TABLE r (j int, x float, y float)")
        d.insert("l", [(i, x, y) for i, (x, y) in enumerate(left)])
        d.insert("r", [(j, x, y) for j, (x, y) in enumerate(right)])
        got = sorted(d.query(
            f"SELECT i, j FROM l, r "
            f"WHERE dist_l2(l.x, l.y, r.x, r.y) <= {eps}"
        ).rows)
        want = sorted(
            (i, j)
            for i, p in enumerate(left)
            for j, q in enumerate(right)
            if dist(p, q, "l2") <= eps
        )
        assert got == want


class TestRewritePreservesThePredicate:
    """The rewrite changes how pairs are found, never which pairs: the
    R-tree window gathers, the recognized conjunct itself decides.  On a
    0.1 lattice the pairs at exactly ε are where a window test, the
    squared-distance compare and ``hypot`` round apart."""

    @pytest.fixture(scope="class")
    def lattice_db(self):
        rng = random.Random(4)
        d = Database()
        for table in ("a", "b"):
            d.execute(f"CREATE TABLE {table} (id int, x float, y float)")
            d.insert(table, [(i, rng.randrange(40) * 0.1,
                              rng.randrange(40) * 0.1) for i in range(150)])
        return d

    @pytest.mark.parametrize("fn", ["dist_l2", "dist_linf"])
    @pytest.mark.parametrize("eps", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("tables", ["a, b", "b, a"])
    def test_join_rows_equal_predicate_rows(self, lattice_db, fn, eps,
                                            tables):
        query = (f"SELECT a.id, b.id FROM {tables} "
                 f"WHERE {fn}(a.x, a.y, b.x, b.y){{}} <= {eps}")
        joined, filtered = query.format(""), query.format(" + 0")
        assert "SimilarityJoin" in lattice_db.explain(joined)
        assert "SimilarityJoin" not in lattice_db.explain(filtered)
        rows = sorted(lattice_db.query(joined).rows)
        assert rows == sorted(lattice_db.query(filtered).rows)
        assert rows  # the lattice has pairs at every one of these radii
