"""``label_runs`` and ``key_runs`` against their brute-force definitions.

A run is one group's row positions in row order.  ``label_runs`` lists
the runs of an SGB node's labels, labels ascending (negative ones, which
the node drops, included); ``key_runs`` lists the runs of equality keys
in first-seen order, where keys are told apart as ``==`` does: NULL is
a key of its own, ``1`` / ``1.0`` / ``True`` are one key.  Also the
``count(*)`` fold, which reads the runs' lengths instead of stepping an
accumulator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.executor.aggregate import key_runs, label_runs


def brute_label_runs(labels):
    return [(label, [j for j, x in enumerate(labels) if x == label])
            for label in sorted(set(labels))]


def brute_key_runs(keys):
    seen = []
    for key in keys:
        if not any(key == s for s in seen):
            seen.append(key)
    return [[j for j, k in enumerate(keys) if k == s] for s in seen]


#: Values a dict merges (``1``/``1.0``/``True``, ``0``/``0.0``/``False``)
#: or keeps apart (NULL from ``0`` and ``False``).
VALUES = st.sampled_from([None, 0, 0.0, False, 1, 1.0, True, 2, -1, "a",
                          "b"])


class TestLabelRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-3, 12), max_size=60))
    def test_equals_brute_force(self, labels):
        assert label_runs(labels) == brute_label_runs(labels)

    def test_empty(self):
        assert label_runs([]) == []

    def test_one_group_of_every_row(self):
        assert label_runs([4] * 5) == [(4, [0, 1, 2, 3, 4])]

    def test_negative_labels_sort_first(self):
        assert label_runs([2, -1, 0, -1, 2]) == [
            (-1, [1, 3]), (0, [2]), (2, [0, 4])]


class TestKeyRuns:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(VALUES), max_size=40)
           | st.lists(st.tuples(VALUES, VALUES), max_size=40))
    def test_equals_brute_force(self, keys):
        assert key_runs(keys) == brute_key_runs(keys)

    def test_empty(self):
        assert key_runs([]) == []

    def test_one_group_of_every_row(self):
        assert key_runs([(7, "x")] * 4) == [[0, 1, 2, 3]]

    def test_null_is_a_key_of_its_own(self):
        keys = [(None,), (0,), (False,), (None,), (0.0,)]
        assert key_runs(keys) == [[0, 3], [1, 2, 4]]

    def test_one_and_true_share_a_key(self):
        keys = [(1,), (True,), (2,), (1.0,)]
        assert key_runs(keys) == [[0, 1, 3], [2]]


class TestCountStarFold:
    """``count(*)`` is each run's length, beside aggregates that fold
    columns, for equality and similarity groups alike."""

    def setup_method(self):
        self.db = Database()
        self.db.execute("CREATE TABLE t (k INT, x FLOAT, y FLOAT)")
        self.db.execute(
            "INSERT INTO t VALUES (1, 0.0, 0.0), (2, 0.5, 0.0), "
            "(1, 10.0, 0.0), (NULL, 10.2, 0.0), (2, 30.0, 0.0), "
            "(NULL, NULL, 0.0)")

    def test_equality_groups(self):
        rows = self.db.query(
            "SELECT k, count(*), count(x), sum(x), count(*) FROM t "
            "GROUP BY k").rows
        assert rows == [(1, 2, 2, 10.0, 2), (2, 2, 2, 30.5, 2),
                        (None, 2, 1, 10.2, 2)]

    def test_scalar_count_of_no_rows(self):
        assert self.db.query(
            "SELECT count(*) FROM t WHERE k > 5").rows == [(0,)]

    def test_similarity_groups(self):
        rows = self.db.query(
            "SELECT count(*), min(x) FROM t GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1").rows
        assert sorted(rows) == [(1, 30.0), (2, 0.0), (2, 10.0)]

    def test_count_distinct_still_folds_its_column(self):
        rows = self.db.query(
            "SELECT count(DISTINCT k), count(*) FROM t GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 1").rows
        assert sorted(rows) == [(1, 1), (1, 2), (2, 2)]
