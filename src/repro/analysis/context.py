"""Per-file analysis context: parsed AST, module identity, pragmas.

Rules never touch the filesystem — the runner hands them one
:class:`FileContext` per file, which carries everything a visitor needs:
the parse tree, the dotted module name (rules scope themselves with
:meth:`FileContext.in_package`), and the inline pragma table.

Pragmas (in comments, anywhere on the offending line):

``# sgblint: disable=SGB006[,SGB007]``
    Suppress the listed rules on this line, with the justification in
    the same comment: ``# sgblint: disable=SGB006 -- converted by
    coerce()``.
``# sgblint: disable-next-line=SGB006``
    Same, but for the following line — for call sites too long to carry
    an inline comment.
``# sgblint: module=repro.core.whatever``
    Override the module identity derived from the path.  Test fixtures
    use this to impersonate in-scope modules from ``tests/``.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Set

_PRAGMA_RE = re.compile(
    r"#\s*sgblint:\s*disable(?P<next>-next-line)?"
    r"=(?P<rules>[A-Z0-9,\s]+)"
)
_MODULE_RE = re.compile(r"#\s*sgblint:\s*module=(?P<module>[\w.]+)")

#: Directory names that terminate the dotted-module walk (the module
#: name starts just after the innermost one found in the path).
_ROOT_MARKERS = ("src",)
_PACKAGE_ROOTS = ("repro", "tests")


def module_name_for_path(path: str) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/core/sgb_all.py`` -> ``repro.core.sgb_all``;
    ``tests/analysis/test_cli.py`` -> ``tests.analysis.test_cli``;
    anything unplaceable falls back to the bare stem.
    """
    parts = [p for p in re.split(r"[\\/]+", path) if p and p != "."]
    if not parts:
        return ""
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    parts[-1] = stem
    start = 0
    for marker in _ROOT_MARKERS:
        if marker in parts[:-1]:
            start = len(parts) - 1 - parts[::-1].index(marker)
    for root in _PACKAGE_ROOTS:
        if root in parts:
            start = max(start, parts.index(root))
            break
    dotted = [p for p in parts[start:] if p != "__init__"]
    return ".".join(dotted) if dotted else stem


class FileContext:
    """Everything one rule invocation needs to know about one file."""

    def __init__(self, path: str, source: str,
                 module: Optional[str] = None):
        self.path = path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=path)
        #: line -> the rule ids disabled there.
        self.disabled: Dict[int, Set[str]] = {}
        self._scan_pragmas()
        pragma_module = self._pragma_module()
        self.module = (
            module if module is not None
            else pragma_module if pragma_module is not None
            else module_name_for_path(path)
        )

    # -- pragma handling ---------------------------------------------------
    def _scan_pragmas(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            target = lineno + 1 if match.group("next") else lineno
            ids = {
                r.strip() for r in match.group("rules").split(",")
                if r.strip()
            }
            self.disabled.setdefault(target, set()).update(ids)

    def _pragma_module(self) -> Optional[str]:
        for text in self.lines[:10]:
            match = _MODULE_RE.search(text)
            if match:
                return match.group("module")
        return None

    def is_disabled(self, line: int, rule_id: str) -> bool:
        return rule_id in self.disabled.get(line, ())

    # -- scoping -----------------------------------------------------------
    def in_package(self, *prefixes: str) -> bool:
        """True when the module is any of ``prefixes`` or nested below."""
        return any(
            self.module == p or self.module.startswith(p + ".")
            for p in prefixes
        )

