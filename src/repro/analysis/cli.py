"""The ``python -m repro.analysis`` command line.

Exit status: 0 — clean (or every finding baselined/suppressed); 1 — at
least one gating finding (or an unjustified/stale-entry baseline problem
under ``--strict-baseline``); 2 — usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    Baseline,
    BaselineEntry,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import all_rules, get_rule, rule_ids
from repro.analysis.runner import lint_paths

PROG = "python -m repro.analysis"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="sgblint — AST invariant linter for the SGB repo "
                    "(determinism, backend, metrics, trace, pool, and "
                    "error-taxonomy discipline)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="fmt", help="findings output format (default: text)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"baseline file of grandfathered findings "
             f"(default: ./{DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover current findings "
             "(carries over existing justifications) and exit 0",
    )
    parser.add_argument(
        "--strict-baseline", action="store_true",
        help="also fail on stale baseline entries and "
             "'TODO: justify' justifications (the CI gate)",
    )
    parser.add_argument(
        "--explain", metavar="SGBnnn", default=None,
        help="print one rule's documentation and exit",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--select", metavar="SGBnnn[,SGBnnn...]", default=None,
        help="run only the listed rules",
    )
    parser.add_argument(
        "--include-fixtures", action="store_true",
        help="also lint tests/analysis/fixtures (excluded from "
             "directory walks by default; explicit file paths are "
             "always linted)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None,
         stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)

    if args.explain:
        try:
            rule = get_rule(args.explain)
        except KeyError as exc:
            print(exc.args[0], file=out)
            return 2
        print(f"{rule.id} — {rule.title}\n", file=out)
        print(rule.explanation(), file=out)
        return 0

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}", file=out)
        return 0

    rules = ()
    if args.select:
        try:
            rules = tuple(
                get_rule(rid.strip())
                for rid in args.select.split(",") if rid.strip()
            )
        except KeyError as exc:
            print(exc.args[0], file=out)
            return 2
        if not rules:
            print(f"--select matched no rules of {rule_ids()}", file=out)
            return 2

    findings = lint_paths(
        args.paths, rules=rules, include_fixtures=args.include_fixtures,
    )

    baseline_path = args.baseline or DEFAULT_BASELINE_NAME
    baseline: Optional[Baseline] = None
    if not args.no_baseline and os.path.exists(baseline_path):
        baseline = Baseline.load(baseline_path)

    if args.update_baseline:
        updated = Baseline.from_findings(findings, previous=baseline)
        updated.save(baseline_path)
        print(
            f"wrote {baseline_path}: {len(updated.entries)} identities "
            f"covering {len(updated)} finding(s)",
            file=out,
        )
        return 0

    suppressed = 0
    stale: List[BaselineEntry] = []
    if baseline is not None:
        findings, suppressed, stale = baseline.apply(findings)

    gating = [f for f in findings if f.severity is Severity.ERROR]
    baseline_problems: List[str] = []
    if args.strict_baseline and baseline is not None:
        for entry in stale:
            baseline_problems.append(
                f"stale baseline entry (no longer found): "
                f"{entry.rule} {entry.path}: {entry.message}"
            )
        for entry in baseline.unjustified():
            baseline_problems.append(
                f"baseline entry lacks a justification: "
                f"{entry.rule} {entry.path}: {entry.message}"
            )
        for entry in baseline.hash_mismatches():
            baseline_problems.append(
                f"baseline entry is stale (file content changed since "
                f"the justification was recorded; re-verify and "
                f"--update-baseline): "
                f"{entry.rule} {entry.path}: {entry.message}"
            )

    if args.fmt == "json":
        _emit_json(out, findings, suppressed, stale, baseline_problems)
    else:
        _emit_text(out, findings, suppressed, stale, baseline_problems)

    return 1 if (gating or baseline_problems) else 0


def _emit_text(out, findings: List[Finding], suppressed: int,
               stale: List[BaselineEntry],
               problems: List[str]) -> None:
    for f in findings:
        print(f.format_text(), file=out)
    for line in problems:
        print(line, file=out)
    tail = f"{len(findings)} finding(s)"
    if suppressed:
        tail += f", {suppressed} suppressed by baseline"
    if stale and not problems:
        tail += f", {len(stale)} stale baseline entr(y/ies)"
    print(tail, file=out)


def _emit_json(out, findings: List[Finding], suppressed: int,
               stale: List[BaselineEntry],
               problems: List[str]) -> None:
    by_rule: dict = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = {
        "total": len(findings),
        "suppressed": suppressed,
        "stale_baseline_entries": len(stale),
        "by_rule": dict(sorted(by_rule.items())),
    }
    payload = {
        "version": 1,
        "tool": "sgblint",
        "findings": [f.as_dict() for f in findings],
        "summary": summary,
        "baseline_problems": problems,
    }
    json.dump(payload, out, indent=2, sort_keys=False)
    out.write("\n")
