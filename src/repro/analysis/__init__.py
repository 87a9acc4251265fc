"""sgblint — AST-based invariant linter for the SGB reproduction.

Four conventions of this codebase have each been broken once in a way
only a mechanical check noticed, and ordinary linters cannot see them:
library errors must belong to the :mod:`repro.errors` taxonomy, shared
``Database`` state must be read under its lock, nothing reachable from an
``async def`` may block the event loop, and operator loops that buffer
rows must reach a cancel checkpoint.  A rule is admitted only with such
a true positive (its ``caught`` string); rules that only ever produced
pragmas were deleted.

* a rule registry (:mod:`repro.analysis.registry`) with one visitor per
  rule (:mod:`repro.analysis.rules`), each carrying an ``--explain``-able
  docstring;
* a whole-program layer (:mod:`repro.analysis.project`: symbol table,
  call graph, lock-held flow) for the cross-module rules;
* a runner (:mod:`repro.analysis.runner`) producing file/line
  :class:`~repro.analysis.findings.Finding` records, honouring inline
  ``# sgblint: disable=...`` pragmas — the one way to justify a finding;
* a CLI: ``python -m repro.analysis paths...``.

Rule catalog (see ``docs/static_analysis.md`` for the rationale):

====== ==================================================================
SGB006 error taxonomy — engine/sql raise repro.errors subclasses
SGB007 lock discipline — guarded attributes accessed under their lock
SGB008 blocking in async — no blocking call reachable from ``async def``
SGB009 cancel checkpoints — buffering operator loops reach a cancel check
====== ==================================================================
"""

from __future__ import annotations

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, get_rule
from repro.analysis.runner import lint_file, lint_paths, lint_source

__all__ = [
    "Finding",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
]
