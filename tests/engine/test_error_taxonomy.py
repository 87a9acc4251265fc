"""Regression tests for the SGB006 raise-site conversions.

Every raise in ``repro.engine`` / ``repro.sql`` that used to throw a bare
``ValueError`` now throws a :mod:`repro.errors` subclass, so callers that
catch ``ReproError`` (shells, services) see every library failure.  One
test per converted site, each asserting both the taxonomy type and — where
the subclass still derives from ``ValueError`` — backward compatibility.
"""

import pytest

from repro.engine.executor.relational import (
    Concat,
    HashJoin,
    SimilarityJoin,
)
from repro.engine.database import Database
from repro.engine.schema import Column, Schema
from repro.engine.executor.scans import ValuesScan
from repro.errors import (
    InvalidParameterError,
    ParseError,
    PlanningError,
    ReproError,
    SQLError,
)
from repro.sql.ast_nodes import BindContext, ColumnRef, Select, Union


def ctx_factory(schema):
    return BindContext(schema)


def values(rows, *cols):
    return ValuesScan(rows, Schema([Column(c, "any", "v") for c in cols]))


class TestRelationalPlanInvariants:
    """relational.py: plan-construction failures are PlanningError."""

    def test_hash_join_empty_keys(self):
        with pytest.raises(PlanningError):
            HashJoin(values([], "a"), values([], "b"), [], [], None,
                     ctx_factory)

    def test_hash_join_mismatched_keys(self):
        with pytest.raises(PlanningError):
            HashJoin(
                values([], "a"), values([], "b"),
                [ColumnRef("a")], [], None, ctx_factory,
            )

    def test_hash_left_join_empty_keys(self):
        with pytest.raises(PlanningError):
            HashJoin(values([], "a"), values([], "b"), [], [], None,
                     ctx_factory, outer=True)

    def test_similarity_join_needs_2d(self):
        with pytest.raises(PlanningError):
            SimilarityJoin(
                values([], "x"), values([], "y"),
                [ColumnRef("x")], [ColumnRef("y")],
                1.0, "l2", None, ctx_factory,
            )

    def test_concat_needs_inputs(self):
        with pytest.raises(PlanningError):
            Concat([])

    def test_concat_mismatched_arity(self):
        with pytest.raises(PlanningError):
            Concat([values([], "a"), values([], "b", "c")])

    def test_planning_error_is_repro_error(self):
        with pytest.raises(ReproError):
            Concat([])


class TestScalarResult:
    """database.py: Result.scalar() misuse is InvalidParameterError."""

    @pytest.fixture()
    def db(self):
        db = Database()
        db.execute("CREATE TABLE t (a int, b int)")
        db.execute("INSERT INTO t VALUES (1, 2), (3, 4)")
        return db

    def test_scalar_requires_1x1_taxonomy(self, db):
        with pytest.raises(InvalidParameterError):
            db.query("SELECT a, b FROM t").scalar()

    def test_scalar_still_a_value_error(self, db):
        # InvalidParameterError subclasses ValueError, so pre-existing
        # `except ValueError` callers keep working.
        with pytest.raises(ValueError):
            db.query("SELECT a, b FROM t").scalar()


class TestUnionAst:
    """ast_nodes.py: malformed Union construction is ParseError."""

    def _select(self):
        return Select(items=[], from_items=[])

    def test_union_flag_arity_checked(self):
        with pytest.raises(ParseError):
            Union([self._select(), self._select()], all_flags=[])

    def test_union_error_is_sql_error(self):
        with pytest.raises(SQLError):
            Union([self._select()], all_flags=[True])
