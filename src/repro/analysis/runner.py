"""File discovery and rule execution for sgblint."""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding, syntax_error_finding
from repro.analysis.registry import all_rules

#: Directory basenames never descended into.
EXCLUDED_DIR_NAMES = frozenset({
    "__pycache__", ".git", ".venv", ".mypy_cache", ".ruff_cache",
    ".pytest_cache", "build", "dist", "node_modules", ".eggs",
})

#: Path fragments skipped during *directory traversal* only — files named
#: explicitly on the command line are always linted (the rule-fixture
#: corpus under tests/analysis/fixtures is full of deliberate
#: violations, but `python -m repro.analysis <fixture>` must still flag
#: them for the fixture tests to mean anything).
EXCLUDED_PATH_FRAGMENTS = ("tests/analysis/fixtures",)


def _norm(path: str) -> str:
    """Normalized, forward-slash, cwd-relative-when-possible path — the
    spelling used in findings."""
    rel = os.path.relpath(path)
    if rel.startswith(".." + os.sep) or rel == "..":
        rel = path
    return rel.replace(os.sep, "/")


def iter_python_files(paths: Sequence[str],
                      include_fixtures: bool = False) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    seen = set()
    for raw in paths:
        if os.path.isfile(raw):
            norm = _norm(raw)
            if norm not in seen:
                seen.add(norm)
                yield norm
            continue
        for dirpath, dirnames, filenames in os.walk(raw):
            dirnames[:] = sorted(
                d for d in dirnames if d not in EXCLUDED_DIR_NAMES
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                norm = _norm(os.path.join(dirpath, filename))
                if not include_fixtures and any(
                    frag in norm for frag in EXCLUDED_PATH_FRAGMENTS
                ):
                    continue
                if norm not in seen:
                    seen.add(norm)
                    yield norm


def lint_source(source: str, path: str = "<string>",
                module: Optional[str] = None) -> List[Finding]:
    """Lint a source string (the unit-test entry point).

    ``module`` overrides the dotted module identity used for rule
    scoping; fixtures alternatively embed ``# sgblint: module=...``.
    """
    try:
        ctx = FileContext(path, source, module=module)
    except SyntaxError as exc:
        return [syntax_error_finding(path, exc)]
    findings = [f for rule in all_rules() for f in rule.check_file(ctx)
                if not ctx.is_disabled(f.line, f.rule)]
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(path: str, module: Optional[str] = None) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, _norm(path), module=module)


def lint_paths(paths: Sequence[str],
               include_fixtures: bool = False) -> List[Finding]:
    """Lint every Python file under ``paths``, one file at a time;
    findings sorted by location."""
    findings = [f for path in iter_python_files(
                    paths, include_fixtures=include_fixtures)
                for f in lint_file(path)]
    findings.sort(key=Finding.sort_key)
    return findings
