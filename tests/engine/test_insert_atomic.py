"""A multi-row INSERT is all or nothing.

Every row is evaluated and coerced, and every stream view on the table
turns the batch into points, before anything is appended; a statement
that raises leaves the table, its B+tree indexes and its views as they
were.  The one exception is a finite point the ε-sized grid refuses at
flush time: the last test here, and ``test_stream_view``.
"""

import pytest

from repro import Database
from repro.errors import (
    ExecutionError,
    InvalidCoordinateError,
    InvalidParameterError,
    PlanningError,
    StreamStateError,
)


def make_db():
    db = Database()
    db.execute("CREATE TABLE t (id int, x float, y float)")
    db.execute("CREATE INDEX t_id ON t (id)")
    db.execute("INSERT INTO t VALUES (0, 0.0, 0.0)")
    view = db.create_stream_view("v", "t", ["x", "y"], eps=1.0)
    return db, view


def state(db, view):
    table = db.table("t")
    return (list(table.rows), list(table.indexes["t_id"].row_ids()),
            view.n_points, view.n_skipped, view.group_rows())


def assert_refused(db, view, error, insert):
    before = state(db, view)
    with pytest.raises(error):
        insert()
    assert state(db, view) == before
    # ... and the table still takes good rows, ids in step with the view
    db.execute("INSERT INTO t VALUES (7, 0.5, 0.5), (8, 9.0, 9.0)")
    assert len(db.table("t")) == 3
    assert view.group_rows() == [[0, 1], [2]]
    assert list(db.table("t").indexes["t_id"].row_ids(7, 8)) == [1, 2]


def values(rows):
    return "INSERT INTO t VALUES " + ", ".join(rows)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_inf_coordinate_at_row_k(k):
    db, view = make_db()
    rows = ["(1, 0.5, 0.5)", "(2, 0.1, 0.1)", "(3, 0.2, 0.2)"]
    rows[k] = "(2, 1e999, 0)"
    assert_refused(db, view, InvalidCoordinateError,
                   lambda: db.execute(values(rows)))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_type_error_at_row_k(k):
    db, view = make_db()
    rows = ["(4, 0.5, 0.5)", "(5, 1, 1)", "(6, 2, 2)"]
    rows[k] = "('x', 1, 1)"
    assert_refused(db, view, InvalidParameterError,
                   lambda: db.execute(values(rows)))


def test_inf_in_the_middle_of_three_rows():
    db, view = make_db()
    assert_refused(db, view, InvalidCoordinateError, lambda: db.execute(
        "INSERT INTO t VALUES (1,0.5,0.5),(2,1e999,0),(3,0.1,0.1)"))


def test_type_error_after_a_good_row():
    db, view = make_db()
    assert_refused(db, view, InvalidParameterError, lambda: db.execute(
        "INSERT INTO t VALUES (4,0.5,0.5),('x',1,1)"))


@pytest.mark.parametrize("bad,error", [
    ((2, float("nan"), 0.0), InvalidCoordinateError),
    ((2, 0.0, float("-inf")), InvalidCoordinateError),
    (("x", 1.0, 1.0), InvalidParameterError),
    ((2, "1.0", 1.0), InvalidParameterError),
    ((2, 1.0), InvalidParameterError),
])
def test_database_insert_api(bad, error):
    db, view = make_db()
    assert_refused(db, view, error,
                   lambda: db.insert("t", [(1, 0.5, 0.5), bad, (3, 0.2, 0.2)]))


def test_evaluation_error_at_a_later_row():
    db, view = make_db()
    assert_refused(db, view, ExecutionError, lambda: db.execute(
        "INSERT INTO t VALUES (1, 0.5, 0.5), (2, 1 / 0, 0)"))


def test_unknown_column_in_column_list():
    db, view = make_db()
    assert_refused(db, view, PlanningError, lambda: db.execute(
        "INSERT INTO t (id, x, z) VALUES (1, 0.5, 0.5)"))


def test_every_view_checks_before_any_appends():
    db = Database()
    db.execute("CREATE TABLE u (x float, y float)")
    first = db.create_stream_view("first", "u", ["x"], eps=1.0)
    second = db.create_stream_view("second", "u", ["x", "y"], eps=1.0)
    with pytest.raises(InvalidCoordinateError):
        db.execute("INSERT INTO u VALUES (0.5, 0.5), (0.7, -1e999)")
    assert len(db.table("u")) == 0
    assert first.n_points == second.n_points == 0


def test_closed_view_refuses_before_the_append():
    db, view = make_db()
    view.batcher.result()
    with pytest.raises(StreamStateError):
        db.execute("INSERT INTO t VALUES (1, 0.5, 0.5)")
    assert len(db.table("t")) == 1


def test_sql_insert_leaves_statistics_where_they_were():
    """Only the Python API's bulk path refreshes stale statistics."""
    db, _ = make_db()
    db.update_statistics("t")
    rows = ", ".join(f"({i}, 0.5, 0.5)" for i in range(40))
    db.execute(f"INSERT INTO t VALUES {rows}")
    assert db.table("t").stats.row_count == 1
    db.insert("t", [(i, 0.5, 0.5) for i in range(40)])
    assert db.table("t").stats.row_count == 81


def test_a_view_refusing_at_flush_leaves_the_other_views_whole():
    """The grid refusing a finite point at flush raises after the rows
    are in; every other view on the table still ingests the batch."""
    db = Database()
    db.execute("CREATE TABLE u (x float, y float)")
    grid = db.create_stream_view("grid", "u", ["x", "y"], eps=0.5,
                                 batch_size=2, strategy="grid")
    rtree = db.create_stream_view("rtree", "u", ["x", "y"], eps=0.5,
                                  batch_size=2, strategy="rtree")
    with pytest.raises(InvalidCoordinateError):
        db.execute("INSERT INTO u VALUES (0, 0), (1e308, 0), (0.1, 0)")
    assert len(db.table("u")) == 3
    assert rtree.n_points == 3
    assert grid.n_points == 2
    assert grid.group_rows() == rtree.group_rows()[:1] == [[0, 2]]
