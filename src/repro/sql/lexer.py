"""SQL lexer: one compiled master regex.

Each match of ``_TOKEN_RE`` is optional whitespace, then one named group
per token kind, tried in order: ``op``, ``number``, ``word`` (ASCII
start), ``uword`` (any other ``\\w`` run; it must start with a letter),
``string`` (``''`` is an escaped quote), ``quoted`` (a ``"…"``
identifier), ``skip`` (``--`` and ``/* */`` comments) and, last,
``error``, which takes any non-space character the others refused.  So
``finditer`` covers the text, a token's ``pos`` is its group's start, and
the loop dispatches on the group's number (cheaper than its name).

Lookaheads keep that order safe: ``-`` is no op before ``-``, nor ``/``
before ``*``, nor ``.`` before a digit.  Numbers are ASCII digits only,
so a unicode digit such as ``²`` is an unexpected character.  A ``/*``,
``'`` or ``"`` that never closes reaches ``error`` and gets its own
message.  Hyphenated keywords (``DISTANCE-TO-ALL``, ``ON-OVERLAP`` …) lex
as ``IDENT OP(-) IDENT …`` and the parser reassembles them, so ``a-b``
still means subtraction.
"""

from __future__ import annotations

import re
from typing import Any, List

from repro.errors import LexerError

# token types
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
EOF = "EOF"

_TOKEN_RE = re.compile(r"""\s*(?:
    (?P<op><=|>=|<>|!=|-(?!-)|/(?![*])|[+*%(),<>=;]|[.](?![0-9]))
  | (?P<number>(?:[0-9]+(?:[.][0-9]*)?|[.][0-9]+)(?:[eE][+-]?[0-9]+)?)
  | (?P<word>[A-Za-z_]\w*)
  | (?P<uword>\w+)
  | (?P<string>'[^']*(?:''[^']*)*')(?!')
  | (?P<quoted>"[^"]*")
  | (?P<skip>--[^\n]*|/[*].*?[*]/)
  | (?P<error>\S)
)""", re.VERBOSE | re.DOTALL)

_OP, _NUMBER, _WORD, _UWORD, _STRING, _QUOTED, _ERROR = (
    _TOKEN_RE.groupindex[name] for name in
    ("op", "number", "word", "uword", "string", "quoted", "error"))

_UNTERMINATED = {
    "/": "unterminated block comment",
    "'": "unterminated string literal",
    '"': "unterminated quoted identifier",
}


class Token:
    __slots__ = ("type", "value", "pos")

    def __init__(self, type_: str, value: Any, pos: int):
        self.type = type_
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.type}, {self.value!r})"


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    # The scan ends at the last non-space character: at the end of the text
    # no alternative matches, and ``\s*`` would backtrack through trailing
    # space from every start position, quadratic in its length.
    for m in _TOKEN_RE.finditer(text, 0, len(text.rstrip())):
        group = m.lastindex  # by number: a group name costs a lookup
        if group == _OP:
            append(Token(OP, m[group], m.start(group)))
        elif group == _NUMBER:
            raw = m[group]
            value = float(raw) if "." in raw or "e" in raw or "E" in raw \
                else int(raw)
            append(Token(NUMBER, value, m.start(group)))
        elif group == _WORD:
            append(Token(IDENT, m[group].lower(), m.start(group)))
        elif group == _UWORD:
            word = m[group]
            if not word[0].isalpha():
                raise LexerError(f"unexpected character {word[0]!r}",
                                 m.start(group))
            append(Token(IDENT, word.lower(), m.start(group)))
        elif group == _STRING:
            append(Token(STRING, m[group][1:-1].replace("''", "'"),
                         m.start(group)))
        elif group == _QUOTED:
            append(Token(IDENT, m[group][1:-1].lower(), m.start(group)))
        elif group == _ERROR:
            ch = m[group]
            raise LexerError(
                _UNTERMINATED.get(ch, f"unexpected character {ch!r}"),
                m.start(group))
    append(Token(EOF, None, len(text)))
    return tokens
