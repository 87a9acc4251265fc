"""SGB006 — engine/sql errors belong to the repro.errors taxonomy."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Layers whose raises callers are documented to catch via ReproError.
SCOPE = ("repro.engine", "repro.sql")

#: Builtin exception -> the taxonomy homes to suggest.
SUGGESTIONS = {
    "ValueError": "InvalidParameterError (argument misuse), "
                  "PlanningError (plan construction), or another "
                  "repro.errors subclass",
    "RuntimeError": "ExecutionError, StreamStateError, or another "
                    "repro.errors subclass",
    "TypeError": "ExecutionError (bad runtime value, e.g. a non-numeric "
                 "grouping attribute) or InvalidParameterError "
                 "(argument misuse)",
    "Exception": "a repro.errors subclass",
}


@register
class ErrorTaxonomyRule(Rule):
    """Engine and SQL front-end code must raise ``repro.errors``
    subclasses, not bare builtins.

    ``repro.errors`` documents one contract: *every* library-raised error
    derives from ``ReproError``, so callers catch the whole family with
    one ``except`` while still distinguishing SQL-front-end problems
    (``SQLError``) from operator misuse (``InvalidParameterError``) and
    runtime failures (``ExecutionError``).  A bare ``raise ValueError``
    in ``repro.engine`` or ``repro.sql`` silently escapes that contract —
    shells and services catching ``ReproError`` to keep serving crash
    instead.

    Flags ``raise ValueError(...)`` / ``raise RuntimeError(...)`` /
    ``raise Exception(...)`` (and bare-name re-raises of the same) inside
    ``repro.engine`` and ``repro.sql``.  Internal control-flow raises
    that a boundary converts (e.g. the coercion helpers in
    ``repro.engine.types``, whose ``ValueError`` is caught and re-raised
    as ``InvalidParameterError``) carry line pragmas with justifications.

    Note ``InvalidParameterError`` subclasses ``ValueError``, so
    converting a raise keeps ``except ValueError`` callers working.
    """

    id = "SGB006"
    title = "bare builtin exception raised in engine/sql code"
    caught = (
        "PR 5: eight bare ValueError/RuntimeError raises in repro.engine "
        "and repro.sql became PlanningError / InvalidParameterError / "
        "ParseError (one regression test per site in "
        "tests/engine/test_error_taxonomy.py)"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for ctx in project.package_contexts.values():
            if ctx.in_package(*SCOPE):
                yield from self._check_file(ctx)

    def _check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in SUGGESTIONS:
                yield self.finding_at(
                    ctx.path, node,
                    f"raise {name} in {self._layer(ctx)} code escapes "
                    f"the ReproError taxonomy; use "
                    f"{SUGGESTIONS[name]} (see repro.errors)",
                )

    @staticmethod
    def _layer(ctx: FileContext) -> str:
        return "engine" if ctx.in_package("repro.engine") else "sql"
