"""INSERT-then-requery through streaming views on the Database."""

import pytest

from repro import Database
from repro.core.api import sgb_any
from repro.engine.shell import Shell
from repro.errors import (
    CatalogError,
    InvalidCoordinateError,
    InvalidParameterError,
)


def make_db():
    db = Database()
    db.execute("CREATE TABLE pts (x float, y float)")
    db.execute("INSERT INTO pts VALUES (0, 0), (0.5, 0), (9, 9)")
    return db


class TestStreamViewLifecycle:
    def test_backfills_existing_rows(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        assert view.n_points == 3
        assert view.snapshot().group_sizes() == [2, 1]

    def test_sql_inserts_update_the_view(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        db.execute("INSERT INTO pts VALUES (8.5, 9.0)")
        assert view.snapshot().group_sizes() == [2, 2]
        db.insert("pts", [(0.2, 0.3)])  # python-level API path
        assert view.snapshot().group_sizes() == [3, 2]

    def test_requery_matches_batch_recompute(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        db.execute("INSERT INTO pts VALUES (1.0, 0.2), (4, 4), (4.3, 4.1)")
        points = [(r[0], r[1]) for r in db.table("pts").rows]
        assert (view.snapshot().partition()
                == sgb_any(points, 1.0).partition())

    def test_null_rows_are_skipped(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        db.execute("INSERT INTO pts VALUES (NULL, 3)")
        assert view.n_points == 3
        assert view.n_skipped == 1

    def test_registry_and_drop(self):
        db = make_db()
        db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        assert db.stream_view_names() == ["g"]
        with pytest.raises(CatalogError):
            db.create_stream_view("g", "pts", ["x"], eps=1.0)
        db.drop_stream_view("g")
        assert db.stream_view_names() == []
        with pytest.raises(CatalogError):
            db.stream_view("g")

    def test_detached_view_stops_following(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        db.drop_stream_view("g")
        db.execute("INSERT INTO pts VALUES (8.5, 9.0)")
        assert view.n_points == 3  # last state kept, no new rows

    def test_drop_table_drops_its_views(self):
        db = make_db()
        db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        db.execute("DROP TABLE pts")
        assert db.stream_view_names() == []

    def test_all_mode_view(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], "all",
                                     eps=1.0, tiebreak="first")
        assert view.snapshot().n_groups == 2

    def test_bad_parameters(self):
        db = make_db()
        with pytest.raises(InvalidParameterError):
            db.create_stream_view("g", "pts", [], eps=1.0)
        with pytest.raises(InvalidParameterError):
            db.create_stream_view("g", "pts", ["x"], "sometimes", eps=1.0)
        with pytest.raises(InvalidParameterError):
            db.create_stream_view("g", "pts", ["x"], eps=0.0)

    def test_group_rows_maps_back_to_table_positions(self):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        rows = view.group_rows()
        assert rows[0] == [0, 1]  # the two clustered rows
        assert rows[1] == [2]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejected_row_does_not_shift_later_row_ids(self, bad):
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=1.0)
        with pytest.raises(InvalidCoordinateError):
            db.insert("pts", [(bad, 0.2)])  # refused: not appended
        db.insert("pts", [(20.0, 20.0), (20.5, 20.0)])  # rows 3 and 4
        assert len(db.table("pts")) == view.n_points == 5
        assert view.group_rows() == [[0, 1], [3, 4], [2]]

    def test_cell_overflow_is_a_typed_error(self):
        # 1e308 // eps overflows the grid's cell number; the buffered row
        # is rejected by the flush that reaches it.
        db = make_db()
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=0.5)
        with pytest.raises(InvalidCoordinateError):
            db.insert("pts", [(1e308, 0.2)])
            view.snapshot()
        rtree = db.create_stream_view("r", "pts", ["x", "y"], eps=0.5,
                                      strategy="rtree")
        assert rtree.snapshot().n_points == 4


    def test_engine_rejection_at_flush_loses_only_that_row(self):
        # 1e308 is finite, so INSERT accepts it; only the flush that
        # reaches it learns the ε-sized grid cannot cell it.  The row
        # buffered behind it used to be dropped with it.
        db = Database()
        db.execute("CREATE TABLE pts (x float, y float)")
        view = db.create_stream_view("g", "pts", ["x", "y"], eps=0.5,
                                     batch_size=4, strategy="grid")
        db.execute("INSERT INTO pts VALUES (0, 0), (1e308, 0), (0.1, 0)")
        with pytest.raises(InvalidCoordinateError):
            view.snapshot()
        assert view.n_points == 2
        assert view.group_rows() == [[0, 2]]  # (0.1, 0) kept, ids aligned
        # ... also when the failing flush is triggered by a later INSERT
        # (batch_size reached), whose own row must survive too
        db.execute("INSERT INTO pts VALUES (9, 9), (1e308, 1)")
        with pytest.raises(InvalidCoordinateError):
            db.execute("INSERT INTO pts VALUES (9.2, 9), (9.4, 9)")
        db.execute("INSERT INTO pts VALUES (0.3, 0)")
        assert view.n_points == 6
        assert view.group_rows() == [[0, 2, 7], [3, 5, 6]]


class TestShellStreamCommand:
    def test_create_inspect_drop(self):
        shell = Shell(make_db())
        out = shell.feed("\\stream create g pts x,y any 1.0")
        assert "2 groups" in out
        listing = shell.feed("\\stream")
        assert "g: any over pts(x,y)" in listing
        shell.feed("INSERT INTO pts VALUES (8.5, 9.0);")
        detail = shell.feed("\\stream g")
        assert "4 points" in detail and "2 groups" in detail
        assert "Dropped" in shell.feed("\\stream drop g")
        assert "No stream views" in shell.feed("\\stream")

    def test_errors_are_reported_not_raised(self):
        shell = Shell(make_db())
        assert shell.feed("\\stream nope").startswith("ERROR:")
        assert shell.feed("\\stream create g pts x,y any zero").startswith(
            "ERROR:"
        )
        assert "usage" in shell.feed("\\stream create g pts")
        # a row the engine refuses at flush is an ERROR line, once
        shell.feed("\\stream create g pts x,y any 0.5")
        shell.feed("INSERT INTO pts VALUES (1e308, 0), (9.2, 9);")
        assert shell.feed("\\stream g").startswith("ERROR:")
        assert "4 points" in shell.feed("\\stream g")
