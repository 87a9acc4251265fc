"""Parser robustness: malformed input must fail with SQLError, never with
an uncontrolled exception, and valid statements must round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SQLError
from repro.sql.parser import parse


#: Statements every parser must refuse with an SQLError.
MALFORMED_SQL = [
    "SELECT",
    "SELECT FROM t",
    "SELECT a FROM",
    "SELECT a FROM t WHERE",
    "SELECT a b c FROM t",
    "INSERT INTO",
    "INSERT INTO t VALUES",
    "INSERT INTO t VALUES (1",
    "CREATE TABLE t",
    "CREATE TABLE t ()",
    "SELECT * FROM t GROUP BY",
    "SELECT * FROM t GROUP BY x DISTANCE-TO-ALL",
    "SELECT * FROM t GROUP BY x DISTANCE-TO-ALL WITHIN",
    "SELECT * FROM (SELECT 1)",          # missing alias
    "SELECT a FROM t ORDER BY",
    "SELECT a FROM t LIMIT many",
    "SELECT CASE WHEN 1 THEN 2",          # missing END
    "SELECT 1 UNION",
    "SELECT 1 WHERE x IN ()",
    "SELECT 1 WHERE x BETWEEN 1",
    "DROP INDEX i",                       # missing ON table
    ";;;SELECT",
    "(((((",
    "'unterminated",
]


class TestMalformedInputs:
    @pytest.mark.parametrize("sql", MALFORMED_SQL)
    def test_raises_sql_error(self, sql):
        with pytest.raises(SQLError):
            parse(sql)

    def test_empty_input_gives_no_statements(self):
        assert parse("") == []
        assert parse("   ;;  ; ") == []


class TestFuzz:
    _tokens = st.sampled_from([
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "DISTANCE", "-", "TO",
        "ALL", "ANY", "WITHIN", "ON", "OVERLAP", "JOIN", "LEFT", "UNION",
        "CASE", "WHEN", "THEN", "END", "(", ")", ",", "*", "+", "=", "<",
        "1", "2.5", "'str'", "ident", "t", "a", "b", "count", "NULL",
        "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "IS", "AS", ";",
    ])

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(_tokens, max_size=25))
    def test_random_token_soup_never_crashes(self, parts):
        """Any input either parses or raises an SQLError — nothing else."""
        text = " ".join(parts)
        try:
            parse(text)
        except SQLError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(text=st.text(max_size=60))
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse(text)
        except SQLError:
            pass


class TestRoundTrips:
    """Statements the test suite relies on must parse to the same shapes
    regardless of whitespace/case mangling."""

    @pytest.mark.parametrize("sql", [
        "select COUNT(*) from T group by X, y distance-to-all LINF "
        "within 3 on-overlap eliminate",
        "SELECT\n\tcount(*)\nFROM t\nGROUP BY x, y\n"
        "DISTANCE-TO-ANY L2 WITHIN 0.5",
        "select a from t where a in (select b from u) order by 1 limit 5",
    ])
    def test_whitespace_and_case_insensitive(self, sql):
        stmts_a = parse(sql)
        stmts_b = parse(sql.upper().replace("\n", "  "))
        assert len(stmts_a) == len(stmts_b) == 1
        assert type(stmts_a[0]) is type(stmts_b[0])
