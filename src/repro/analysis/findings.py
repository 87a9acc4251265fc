"""The finding type shared by every sgblint rule."""

from __future__ import annotations

from typing import Tuple


class Finding:
    """One rule violation at a file/line/column.  Any finding that is
    not disabled by a line pragma fails the run."""

    __slots__ = ("rule", "path", "line", "col", "message")

    def __init__(self, rule: str, path: str, line: int, col: int,
                 message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}"
        )

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def __repr__(self) -> str:
        return f"Finding({self.format_text()!r})"


def syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    """The pseudo-finding emitted when a target file does not parse.

    ``SGB000`` is reserved for this — it is not a registered rule (there
    is nothing to ``--explain``) but it fails the run like any other: a
    file the linter cannot read is a file whose invariants nobody
    checked.
    """
    return Finding(
        "SGB000", path, exc.lineno or 0, (exc.offset or 1) - 1,
        f"file does not parse: {exc.msg}",
    )
