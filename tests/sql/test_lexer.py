"""Lexer tests."""

import time

import pytest

from repro.errors import LexerError
from repro.sql.lexer import EOF, IDENT, NUMBER, OP, STRING, tokenize


def kinds(sql):
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].type == EOF

    def test_identifiers_lowercased(self):
        assert kinds("SELECT Name") == [(IDENT, "select"), (IDENT, "name")]

    def test_numbers(self):
        assert kinds("42 3.14 1e3 2.5E-2") == [
            (NUMBER, 42), (NUMBER, 3.14), (NUMBER, 1000.0), (NUMBER, 0.025),
        ]

    def test_integer_stays_int(self):
        toks = tokenize("7")
        assert isinstance(toks[0].value, int)

    def test_strings(self):
        assert kinds("'hello'") == [(STRING, "hello")]
        assert kinds("'it''s'") == [(STRING, "it's")]

    def test_unterminated_string(self):
        with pytest.raises(LexerError, match="unterminated"):
            tokenize("'oops")

    def test_quoted_identifier(self):
        assert kinds('"Weird Name"') == [(IDENT, "weird name")]

    def test_operators(self):
        assert kinds("a <= b <> c != d >= e") == [
            (IDENT, "a"), (OP, "<="), (IDENT, "b"), (OP, "<>"),
            (IDENT, "c"), (OP, "!="), (IDENT, "d"), (OP, ">="), (IDENT, "e"),
        ]

    def test_arithmetic_and_punctuation(self):
        assert [v for _, v in kinds("(a + b) * c, d.e;")] == [
            "(", "a", "+", "b", ")", "*", "c", ",", "d", ".", "e", ";",
        ]

    def test_unexpected_character(self):
        with pytest.raises(LexerError) as err:
            tokenize("a @ b")
        assert err.value.position == 2

    @pytest.mark.parametrize("tail", [" ", "\n\t", "　"])
    def test_trailing_whitespace_is_linear(self, tail):
        """A 1 MiB frame of ``SELECT 1`` and spaces must not stall the
        server: the scan stays linear in the trailing whitespace."""
        text = "SELECT 1" + tail * (200_000 // len(tail))
        start = time.perf_counter()
        toks = tokenize(text)
        assert time.perf_counter() - start < 1.0
        assert [(t.type, t.value) for t in toks] == [
            (IDENT, "select"), (NUMBER, 1), (EOF, None)]
        assert toks[-1].pos == len(text)


class TestComments:
    def test_line_comment(self):
        assert kinds("a -- comment\n b") == [(IDENT, "a"), (IDENT, "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [(IDENT, "a"), (IDENT, "b")]

    def test_unterminated_block(self):
        with pytest.raises(LexerError):
            tokenize("a /* never ends")


class TestHyphenatedKeywords:
    def test_distance_to_all_lexes_as_idents_and_minus(self):
        assert kinds("DISTANCE-TO-ALL") == [
            (IDENT, "distance"), (OP, "-"), (IDENT, "to"), (OP, "-"),
            (IDENT, "all"),
        ]

    def test_minus_still_arithmetic(self):
        assert kinds("a-b") == [(IDENT, "a"), (OP, "-"), (IDENT, "b")]
        # a leading minus on a number lexes as OP + NUMBER
        assert kinds("-5") == [(OP, "-"), (NUMBER, 5)]
