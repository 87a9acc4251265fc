"""Parity of the SQL front end with the character-loop lexer and the
seven-level recursive descent it replaced.

* Tokens: :mod:`tests.sql.lexer_oracle` is the old ``tokenize`` verbatim;
  the regex lexer must give the same ``(type, value, pos)`` stream, or
  raise the same :class:`LexerError` message at the same position, on
  Hypothesis text, the fuzz soups of ``test_parser_fuzz`` and the golden
  corpus.
* ASTs: ``parser_golden.jsonl`` holds, per statement of the corpus (every
  query of :mod:`repro.workloads.queries` and the Table-2 catalog, the
  INSERTs of the ``ingest_stream`` benchmark's first 16 ops, and
  precedence edge cases), a structural dump with each expression's
  ``key()`` and ``repr`` (a SHA-256 of it for the 40-row INSERTs),
  written by the old parser.
* Errors: the exact exception type and message for malformed input.

Regenerate the golden file only for an intended AST change::

    PYTHONPATH=src python -m tests.sql.test_parser_parity
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexerError, ParseError, SQLError
from repro.sql import ast_nodes as ast
from repro.sql.lexer import tokenize
from repro.sql.parser import parse
from tests.sql import lexer_oracle
from tests.sql import test_parser_fuzz as fuzz

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("parser_golden.jsonl")

#: Statements that parse, chosen for the corners of the precedence table
#: and of the number, string and identifier rules.
EDGE_CASES = [
    "SELECT 1e",
    "SELECT 1 = 2 BETWEEN 0 AND 3",
    "SELECT 1 BETWEEN 0 AND 2 AND 3",
    "SELECT a = b = c, a < b <> c >= d",
    "SELECT NOT a = b AND c OR NOT NOT d",
    "SELECT a OR b AND c OR d AND NOT e",
    "SELECT a NOT IN (1, 2) OR b NOT BETWEEN 1 AND 2 OR c NOT LIKE 'x%'",
    "SELECT NOT a IN (SELECT b FROM u) FROM t",
    "SELECT a + b NOT IN (1) AND a IS NOT NULL = TRUE",
    "SELECT a = b IS NULL, a IS NULL IS NOT NULL",
    "SELECT -x * 2 + 3 % 2 - -1, - - 1, + 1, -(1 + 2) * 3",
    "SELECT 1 - 2 - 3, 2 * 3 / 4 % 5, 1 + 2 * 3 - 4 / 5",
    "SELECT a BETWEEN 1 + 1 AND 2 * 3 = b",
    "SELECT a LIKE 'x' = TRUE, CASE x WHEN 1 THEN 'a' ELSE 'b' END",
    "SELECT CASE WHEN a > 1 AND b THEN 1 WHEN NOT c THEN 2 END",
    "SELECT .5, 5., 1.e5, 1.5e-3, 2E+2, 007, 1e5 e",
    "SELECT a٣, 1_000, a1, _x, \"Quoted Id\", 'it''s', ''''",
    'SELECT a "+" FROM t',
    'SELECT a "=" FROM t',
    'SELECT a "*", b "<", c "%", d "-" FROM t',
    'SELECT a "and" b, c "is" NULL',
    "SELECT a.b FROM t AS x -- trailing\n WHERE x-y > 0 /* c */ + 1",
    "SELECT DATE '1995-01-01' + INTERVAL '3' month, INTERVAL 2 day",
    "SELECT count(DISTINCT a), sum(a * 2), abs(-a) FROM t",
    "SELECT x FROM t WHERE a IN (1, 2 + 3, (4)) ORDER BY 1 DESC LIMIT 2",
    "SELECT count(*) FROM t GROUP BY x - 1, y * 2 DISTANCE-TO-ALL LINF "
    "WITHIN 1 + 2 ON-OVERLAP FORM-NEW-GROUP PARTITION BY z % 2",
    "SELECT count(*) FROM t GROUP BY x MAXIMUM-ELEMENT-SEPARATION 2 - 1 "
    "MAXIMUM-GROUP-DIAMETER 3",
    "SELECT count(*) FROM t GROUP BY x, y AROUND ((0, -1), (2, 3)) "
    "WITHIN 4 - 1",
    "SELECT a FROM t UNION ALL SELECT b FROM u",
    "INSERT INTO t (a, b) VALUES (1, -2.5), (NULL, 'x' ), (TRUE, 1 + 2)",
    "CREATE TABLE t (a int, b decimal(10, 2)); DROP TABLE IF EXISTS t;",
    "EXPLAIN ANALYZE SELECT a FROM t WHERE NOT a < 1; ANALYZE t",
]

#: Malformed statements and the exact error each raises.
MALFORMED = [
    ('SELECT 1 = NOT 2', ParseError,
     "unexpected keyword 'NOT' in expression"),
    ('SELECT ²', LexerError,
     "unexpected character '²' (at offset 7)"),
    ('SELECT 1 +', ParseError,
     'unexpected token None in expression'),
    ('INSERT INTO t VALUES ()', ParseError,
     "unexpected token ')' in expression"),
    ('SELECT 3e+', ParseError,
     "unexpected token '+'"),
    ('SELECT 1..2', ParseError,
     'unexpected token 0.2'),
    ('SELECT 1.2.3', ParseError,
     'unexpected token 0.3'),
    ('SELECT 1e5.5', ParseError,
     'unexpected token 0.5'),
    ('SELECT a NOT', ParseError,
     "unexpected token 'not'"),
    ('SELECT a NOT NULL', ParseError,
     "unexpected token 'not'"),
    ('SELECT 1 BETWEEN 0', ParseError,
     'expected AND, got None'),
    ('SELECT a IS', ParseError,
     'expected NULL, got None'),
    ('SELECT a IS NOT 1', ParseError,
     'expected NULL, got 1'),
    ('SELECT a LIKE 1', ParseError,
     'LIKE expects a string pattern'),
    ("SELECT 'abc", LexerError,
     'unterminated string literal (at offset 7)'),
    ('SELECT "abc', LexerError,
     'unterminated quoted identifier (at offset 7)'),
    ('SELECT /* x', LexerError,
     'unterminated block comment (at offset 7)'),
    ('SELECT @', LexerError,
     "unexpected character '@' (at offset 7)"),
    ('SELECT 1 != ! 2', LexerError,
     "unexpected character '!' (at offset 12)"),
    ('SELECT 1 AND', ParseError,
     'unexpected token None in expression'),
    ('SELECT NOT', ParseError,
     'unexpected token None in expression'),
    ('SELECT (1', ParseError,
     "expected ')', got None"),
    ('SELECT x IN 1', ParseError,
     "expected '(', got 1"),
    ('SELECT 1 = = 2', ParseError,
     "unexpected token '=' in expression"),
    ('SELECT 1 * NOT 2', ParseError,
     "unexpected keyword 'NOT' in expression"),
    ('SELECT 1 + NOT 2', ParseError,
     "unexpected keyword 'NOT' in expression"),
    ('SELECT - NOT 1', ParseError,
     "unexpected keyword 'NOT' in expression"),
    ('SELECT a BETWEEN NOT 1 AND 2', ParseError,
     "unexpected keyword 'NOT' in expression"),
    ('SELECT a BETWEEN 1 OR 2', ParseError,
     "expected AND, got 'or'"),
    ("SELECT DATE 'x'", ParseError,
     "invalid date literal 'x'"),
    ('SELECT INTERVAL x', ParseError,
     'INTERVAL expects a quoted or numeric amount'),
    ('SELECT 1 OR', ParseError,
     'unexpected token None in expression'),
    ('SELECT ٣', LexerError,
     "unexpected character '٣' (at offset 7)"),
    ('SELECT _², ½', LexerError,
     "unexpected character '½' (at offset 11)"),
    ('SELECT a NOT IS NULL', ParseError,
     "unexpected token 'not'"),
    ('SELECT CASE END', ParseError,
     "unexpected keyword 'END' in expression"),
    ('SELECT count(DISTINCT *)', ParseError,
     "unexpected token '*' in expression"),
    ('SELECT f(DISTINCT a)', ParseError,
     'DISTINCT is only valid inside aggregates'),
    ('SELECT 1 FROM t LIMIT 1.5', ParseError,
     'LIMIT expects an integer, got 1.5'),
    ('SELECT * FROM t GROUP BY x DISTANCE-TO-ANY WITHIN 1 ON-OVERLAP ELIMINATE', ParseError,
     'DISTANCE-TO-ANY does not take ON-OVERLAP'),
    ('SELECT 1 IN (SELECT 2', ParseError,
     "expected ')', got None"),
    ('INSERT INTO t VALUES (1,)', ParseError,
     "unexpected token ')' in expression"),
    ('INSERT INTO t (a VALUES (1)', ParseError,
     "expected ')', got 'values'"),
    ('SELECT a FROM t WHERE a = 1 AND NOT', ParseError,
     'unexpected token None in expression'),
    ('SELECT 1 FROM t LEFT', ParseError,
     "unexpected token 'left'"),
    ('EXPLAIN INSERT INTO t VALUES (1)', ParseError,
     'EXPLAIN supports SELECT queries only'),
    # test_parser_fuzz.TestMalformedInputs
    ('SELECT', ParseError,
     'unexpected token None in expression'),
    ('SELECT FROM t', ParseError,
     "unexpected keyword 'FROM' in expression"),
    ('SELECT a FROM', ParseError,
     'expected identifier, got None'),
    ('SELECT a FROM t WHERE', ParseError,
     'unexpected token None in expression'),
    ('SELECT a b c FROM t', ParseError,
     "unexpected token 'c'"),
    ('INSERT INTO', ParseError,
     'expected identifier, got None'),
    ('INSERT INTO t VALUES', ParseError,
     "expected '(', got None"),
    ('INSERT INTO t VALUES (1', ParseError,
     "expected ')', got None"),
    ('CREATE TABLE t', ParseError,
     "expected '(', got None"),
    ('CREATE TABLE t ()', ParseError,
     "expected identifier, got ')'"),
    ('SELECT * FROM t GROUP BY', ParseError,
     'unexpected token None in expression'),
    ('SELECT * FROM t GROUP BY x DISTANCE-TO-ALL', ParseError,
     'expected WITHIN, got None'),
    ('SELECT * FROM t GROUP BY x DISTANCE-TO-ALL WITHIN', ParseError,
     'unexpected token None in expression'),
    ('SELECT * FROM (SELECT 1)', ParseError,
     'expected identifier, got None'),
    ('SELECT a FROM t ORDER BY', ParseError,
     'unexpected token None in expression'),
    ('SELECT a FROM t LIMIT many', ParseError,
     "LIMIT expects an integer, got 'many'"),
    ('SELECT CASE WHEN 1 THEN 2', ParseError,
     'expected END, got None'),
    ('SELECT 1 UNION', ParseError,
     'expected SELECT, got None'),
    ('SELECT 1 WHERE x IN ()', ParseError,
     "unexpected token ')' in expression"),
    ('SELECT 1 WHERE x BETWEEN 1', ParseError,
     'expected AND, got None'),
    ('DROP INDEX i', ParseError,
     'expected ON, got None'),
    (';;;SELECT', ParseError,
     'unexpected token None in expression'),
    ('(((((', ParseError,
     "unexpected token '('"),
    ("'unterminated", LexerError,
     'unterminated string literal (at offset 0)'),
]


def dump(node, root: bool = True):
    """A JSON-able structural dump of a parse result.

    Objects become their class name plus their fields; values become
    their ``repr``.  The root of an expression tree becomes its ``repr``
    (when no node in it prints an address) and its ``key()``, which
    covers every field of every node; only a tree holding a subquery,
    whose ``key()`` is an ``id``, is dumped field by field.
    """
    if isinstance(node, (list, tuple)):
        return [dump(x, root) for x in node]
    slots = getattr(type(node), "__slots__", None)
    if not hasattr(node, "__dict__") and slots is None:
        return repr(node)
    fields = vars(node) if hasattr(node, "__dict__") else {
        name: getattr(node, name) for name in slots}
    is_expr = isinstance(node, ast.Expr)
    out = {"@": type(node).__name__}
    if is_expr and root:
        text = repr(node)
        if " object at 0x" not in text:
            out["repr()"] = text
        if not any(isinstance(n, ast.InSubquery) for n in node.walk()):
            out["key()"] = repr(node.key())
            return out
    for name, value in sorted(fields.items()):
        if name != "_regex":  # Like's compiled pattern; .pattern is kept
            out[name] = dump(value, root and not is_expr)
    return out


def token_stream(lex, text):
    """``(type, type(value), value, pos)`` per token, or the error."""
    try:
        return [(t.type, type(t.value).__name__, t.value, t.pos)
                for t in lex(text)]
    except LexerError as exc:
        return ("LexerError", str(exc), exc.position)


def assert_same_tokens(text):
    assert token_stream(tokenize, text) == \
        token_stream(lexer_oracle.tokenize, text), text


def corpus():
    """The statements of the golden file, in order."""
    from repro.bench.experiments import table2_catalog
    from repro.workloads import queries as Q

    sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
    from workloads import IngestStream

    stmts = [Q.q1(), Q.gb1(), Q.gb2(), Q.gb3()]
    for metric in ("l2", "linf"):
        for overlap in ("join-any", "eliminate", "form-new-group"):
            stmts += [Q.sgb1(500, metric, overlap), Q.sgb3(5000, metric, overlap),
                      Q.sgb5(2000, metric, overlap),
                      Q.checkin_sgb_all(0.1, metric, overlap),
                      Q.private_groups(0.1, overlap)]
        stmts += [Q.sgb2(500, metric), Q.sgb4(5000, metric),
                  Q.sgb6(2000, metric), Q.checkin_sgb_any(0.1, metric)]
    stmts += [Q.manet_groups(0.5), Q.manet_gateways(0.5)]
    stmts += [sql for _, sql in table2_catalog()]
    stmts += EDGE_CASES
    stmts += [op.arg for op in IngestStream(7).schedule(0, 16)
              if op.cls == "insert"]
    return stmts


def golden_entry(sql: str) -> dict:
    """``sql`` with its dump, or for the benchmark's 40-row INSERTs (13 kB
    of dump each) the dump's SHA-256."""
    tree = dump(parse(sql))
    if sql.startswith("INSERT INTO checkins_r"):
        text = json.dumps(tree, separators=(",", ":")).encode()
        return {"sql": sql, "ast_sha256": hashlib.sha256(text).hexdigest()}
    return {"sql": sql, "ast": tree}


def write_golden(path: Path = GOLDEN) -> None:
    with path.open("w") as out:
        for sql in corpus():
            out.write(json.dumps(golden_entry(sql), separators=(",", ":")))
            out.write("\n")


def golden():
    with GOLDEN.open() as lines:
        return [json.loads(line) for line in lines]


GOLDEN_ENTRIES = golden()


class TestGoldenCorpus:
    def test_covers_every_kind_of_statement(self):
        first_words = {e["sql"].split()[0].upper() for e in GOLDEN_ENTRIES}
        assert {"SELECT", "INSERT", "CREATE", "EXPLAIN"} <= first_words
        inserts = [e for e in GOLDEN_ENTRIES
                   if e["sql"].startswith("INSERT INTO checkins_r0")]
        assert len(inserts) == 16

    @pytest.mark.parametrize("entry", GOLDEN_ENTRIES,
                             ids=lambda e: e["sql"][:40])
    def test_same_ast(self, entry):
        assert golden_entry(entry["sql"]) == entry

    @pytest.mark.parametrize("entry", GOLDEN_ENTRIES,
                             ids=lambda e: e["sql"][:40])
    def test_same_tokens(self, entry):
        assert_same_tokens(entry["sql"])


class TestMalformed:
    @pytest.mark.parametrize("sql,error,message", MALFORMED,
                             ids=[m[0] for m in MALFORMED])
    def test_exact_error(self, sql, error, message):
        with pytest.raises(SQLError) as info:
            parse(sql)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("sql", fuzz.MALFORMED_SQL)
    def test_fuzz_list_tokens(self, sql):
        assert_same_tokens(sql)


class TestLexerParity:
    _chars = st.sampled_from(
        list("abzAZ_09.eE+-*/%(),<>=!;'\"\n\t @#$^&|~`[]{}?:\\")
        + ["--", "/*", "*/", "''", "1e", "e-", "²", "٣", "é", "ß", "İ",
           " ", "\x85", " ", "½", "Ⅷ", "ǅ", "ـ"])

    @settings(max_examples=400, deadline=None)
    @given(parts=st.lists(_chars, max_size=40))
    def test_sql_alphabet(self, parts):
        assert_same_tokens("".join(parts))

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=60))
    def test_arbitrary_text(self, text):
        assert_same_tokens(text)

    @settings(max_examples=300, deadline=None)
    @given(parts=st.lists(fuzz.TestFuzz._tokens, max_size=25))
    def test_fuzz_token_soup(self, parts):
        assert_same_tokens(" ".join(parts))


if __name__ == "__main__":
    write_golden()
    print(f"wrote {sum(1 for _ in GOLDEN.open())} statements to {GOLDEN}")
