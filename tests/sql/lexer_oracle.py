"""The SQL lexer before it became one regex, kept as a test oracle.

``tokenize`` below is the character loop ``repro.sql.lexer`` used to be,
verbatim but for its imports.  ``test_parser_parity`` checks that the
regex lexer gives the same ``(type, value, pos)`` stream, or the same
:class:`LexerError` message and position, on every input it tries.
"""

from __future__ import annotations

from typing import Any, List

from repro.errors import LexerError
from repro.sql.lexer import EOF, IDENT, NUMBER, OP, STRING, Token

_MULTI_OPS = ("<=", ">=", "<>", "!=")
_SINGLE_OPS = "+-*/%(),.<>=;"


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":  # block comment
            end = text.find("*/", i + 2)
            if end == -1:
                raise LexerError("unterminated block comment", i)
            i = end + 2
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise LexerError("unterminated string literal", i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # escaped quote
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            tokens.append(Token(STRING, "".join(buf), i))
            i = j + 1
            continue
        if ch == '"':  # quoted identifier
            j = text.find('"', i + 1)
            if j == -1:
                raise LexerError("unterminated quoted identifier", i)
            tokens.append(Token(IDENT, text[i + 1:j].lower(), i))
            i = j + 1
            continue
        # "0" <= ch <= "9" deliberately, not str.isdigit(): unicode digit
        # characters (e.g. superscripts) are not valid SQL numbers.
        if "0" <= ch <= "9" or (
            ch == "." and i + 1 < n and "0" <= text[i + 1] <= "9"
        ):
            j = i
            seen_dot = False
            seen_exp = False
            while j < n:
                c = text[j]
                if "0" <= c <= "9":
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j > i:
                    if j + 1 < n and "0" <= text[j + 1] <= "9":
                        seen_exp = True
                        j += 1
                    elif (j + 2 < n and text[j + 1] in "+-"
                          and "0" <= text[j + 2] <= "9"):
                        seen_exp = True
                        j += 2
                    else:
                        break
                else:
                    break
            raw = text[i:j]
            value: Any = float(raw) if (seen_dot or seen_exp) else int(raw)
            tokens.append(Token(NUMBER, value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, text[i:j].lower(), i))
            i = j
            continue
        two = text[i:i + 2]
        if two in _MULTI_OPS:
            tokens.append(Token(OP, two, i))
            i += 2
            continue
        if ch in _SINGLE_OPS:
            tokens.append(Token(OP, ch, i))
            i += 1
            continue
        raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(Token(EOF, None, n))
    return tokens
