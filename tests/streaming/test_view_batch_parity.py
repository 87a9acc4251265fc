"""A stream view fed one batch per INSERT equals a view fed row by row.

The view turns each appended batch into points with the column rule
``grouping_points`` and hands them to ``MicroBatcher.extend``.
:class:`RowByRow` is how it used to ingest, one ``grouping_point`` and
one ``MicroBatcher.insert`` per row, fed the same table rows in order.
Labels, point and skip counts, the engines' counters, the number of
flushes and the row ids behind each group must all agree.
"""

import datetime as dt
import random
from decimal import Decimal

import pytest

from repro import Database
from repro.core.api import sgb_stream
from repro.engine.executor.sgb import grouping_point
from repro.errors import InvalidCoordinateError, InvalidParameterError
from repro.obs.metrics import SGB_COUNTER_FIELDS

#: name -> (grouping columns, mode, engine options)
VIEWS = {
    "xy": (["x", "y"], "any", {"eps": 0.6}),
    "day": (["d"], "any", {"eps": 3.0}),
    "dx": (["d", "x"], "all", {"eps": 4.0, "tiebreak": "first"}),
}
ROWS_PER_INSERT = 40


class RowByRow:
    """The per-row ingestion the batch listener replaced."""

    def __init__(self, table, columns, mode, batch_size, **options):
        self.batcher = sgb_stream(mode, batch_size=batch_size, **options)
        self.col_idx = [table.schema.resolve(c) for c in columns]
        self.row_ids = []
        self.skipped = 0

    def feed(self, row, row_id):
        point = grouping_point([row[i] for i in self.col_idx])
        if point is None:
            self.skipped += 1
            self.batcher.note_skipped_null()
            return
        self.row_ids.append(row_id)
        self.batcher.insert(point)

    def group_rows(self):
        groups = sorted(self.batcher.snapshot().groups().values(),
                        key=lambda ids: (-len(ids), ids))
        return [[self.row_ids[i] for i in ids] for ids in groups]


def make_rows(seed, n):
    """``(id, x, y, d)`` with NULLs in every grouping column."""
    rng = random.Random(seed)
    base = dt.date(2020, 1, 1)
    rows = []
    for i in range(n):
        x = None if rng.random() < 0.1 else round(rng.uniform(-5, 5), 3)
        y = None if rng.random() < 0.05 else rng.uniform(-5, 5)
        d = (None if rng.random() < 0.1
             else base + dt.timedelta(days=rng.randrange(60)))
        rows.append((i, x, y, d))
    return rows


def sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, dt.date):
        return f"DATE '{value.isoformat()}'"
    return repr(value)


def insert_sql(rows):
    values = ", ".join(
        "(" + ", ".join(map(sql_literal, row)) + ")" for row in rows)
    return f"INSERT INTO t VALUES {values}"


def assert_same(view, oracle):
    snap, want = view.snapshot(), oracle.batcher.snapshot()
    assert snap.labels == want.labels
    assert view.n_points == oracle.batcher.n_points
    assert view.n_skipped == oracle.skipped
    for field in SGB_COUNTER_FIELDS:
        assert getattr(view.stats, field) == \
            getattr(oracle.batcher.stats, field), field
    assert view.batcher.n_batches == oracle.batcher.n_batches
    assert view.batcher.rows_skipped_null == oracle.batcher.rows_skipped_null
    assert view.group_rows() == oracle.group_rows()


@pytest.mark.parametrize("names", [["xy"], ["xy", "day"], ["xy", "day", "dx"]])
@pytest.mark.parametrize("batch_size", [7, 32])
@pytest.mark.parametrize("path", ["sql", "api"])
def test_batched_view_equals_row_by_row(names, batch_size, path):
    rows = make_rows(seed=len(names) * 100 + batch_size, n=25 + 4 * 40)
    db = Database()
    db.execute("CREATE TABLE t (id int, x float, y float, d date)")
    db.insert("t", rows[:25])  # back-filled when the views attach
    table = db.table("t")
    views, oracles = [], []
    for name in names:
        columns, mode, options = VIEWS[name]
        views.append(db.create_stream_view(name, "t", columns, mode,
                                           batch_size=batch_size, **options))
        oracles.append(RowByRow(table, columns, mode, batch_size, **options))
    for row_id, row in enumerate(table.rows):
        for oracle in oracles:
            oracle.feed(row, row_id)
    for k, start in enumerate(range(25, len(rows), ROWS_PER_INSERT)):
        chunk = rows[start:start + ROWS_PER_INSERT]
        if path == "sql":
            db.execute(insert_sql(chunk))
        else:  # Decimal coordinates, coerced by the float column
            db.insert("t", [(i, None if x is None else Decimal(str(x)), y, d)
                            for i, x, y, d in chunk])
        for row_id in range(start, len(table)):
            for oracle in oracles:
                oracle.feed(table.rows[row_id], row_id)
        if k % 2:
            for view, oracle in zip(views, oracles):
                assert_same(view, oracle)
    for view, oracle in zip(views, oracles):
        assert_same(view, oracle)
    assert len(table) == len(rows)


def view_state(view):
    """What a refused batch must not change (``group_rows`` flushes)."""
    return (view.group_rows(), view.snapshot().points, view.n_points,
            view.n_skipped, view.batcher.n_batches)


@pytest.mark.parametrize("k", [0, 1, 39])
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), "x"])
def test_refused_batch_leaves_table_and_views_as_they_were(k, bad):
    db = Database()
    db.execute("CREATE TABLE t (id int, x float, y float, d date)")
    rows = make_rows(seed=3, n=40)
    db.insert("t", rows[:5])
    views = [db.create_stream_view(name, "t", columns, mode, batch_size=7,
                                   **options)
             for name, (columns, mode, options) in VIEWS.items()]
    before = [view_state(view) for view in views]
    batch = [(i + 5, x, y, d) for i, x, y, d in rows]
    batch[k] = (k + 5, bad, 0.0, batch[k][3])
    with pytest.raises((InvalidCoordinateError, InvalidParameterError)):
        db.table("t").insert_many(batch)
    assert len(db.table("t")) == 5
    assert [view_state(view) for view in views] == before


def test_cell_boundary_rows_equal_row_by_row_and_batch():
    # Coordinates where the grid's cell function floor(v / eps) and
    # v // eps bin apart (1.0 // 0.1 is 9, floor(1.0 / 0.1) is 10), one
    # lattice step (an exact-ε tie) from each other.
    coords = [(x, y) for x in (0.9, 1.0, 1.1, -1.0, -1.1, -1.2, -2.2)
              for y in (0.0, 0.1, 1.0)]
    rows = [(i, x, y, None) for i, (x, y) in enumerate(coords)]
    db = Database(sgb_any_strategy="grid")
    db.execute("CREATE TABLE t (id int, x float, y float, d date)")
    view = db.create_stream_view("edge", "t", ["x", "y"], "any",
                                 batch_size=7, eps=0.1)
    oracle = RowByRow(db.table("t"), ["x", "y"], "any", 7, eps=0.1)
    for start in range(0, len(rows), 8):
        db.execute(insert_sql(rows[start:start + 8]))
    for row_id, row in enumerate(db.table("t").rows):
        oracle.feed(row, row_id)
    assert_same(view, oracle)
    batch = db.query("SELECT count(*), min(id) FROM t GROUP BY x, y "
                     "DISTANCE-TO-ANY L2 WITHIN 0.1").rows
    assert sorted(batch) == sorted((len(ids), min(ids))
                                   for ids in view.group_rows())
