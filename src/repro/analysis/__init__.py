"""sgblint — AST-based invariant linter for the SGB reproduction.

One convention of this codebase was broken in a way only a mechanical
check noticed, and ordinary linters cannot see it: errors raised in
``repro.engine`` and ``repro.sql`` must belong to the
:mod:`repro.errors` taxonomy.  A rule is admitted only with such a true
positive (its ``caught`` string); rules whose defects a tier-1 test now
pins were deleted (see ``docs/static_analysis.md``).

* a rule registry (:mod:`repro.analysis.registry`) with one visitor per
  rule (:mod:`repro.analysis.rules`), each carrying an ``--explain``-able
  docstring;
* a runner (:mod:`repro.analysis.runner`) checking one file at a time
  and producing file/line :class:`~repro.analysis.findings.Finding`
  records, honouring inline ``# sgblint: disable=...`` pragmas — the one
  way to justify a finding;
* a CLI: ``python -m repro.analysis paths...``.

Rule catalog:

====== ==================================================================
SGB006 error taxonomy — engine/sql raise repro.errors subclasses
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
