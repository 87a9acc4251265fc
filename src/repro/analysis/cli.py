"""The ``python -m repro.analysis`` command line.

Exit status: 0 — no findings (every one fixed or disabled by a line
pragma); 1 — at least one finding; 2 — usage errors (argparse).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.registry import all_rules, get_rule, rule_ids
from repro.analysis.runner import lint_paths

PROG = "python -m repro.analysis"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="sgblint — AST invariant linter for the SGB repo "
                    "(error-taxonomy, lock, event-loop and "
                    "cancel-checkpoint discipline)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
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
        print(f"\nCaught: {rule.caught}", file=out)
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
    for f in findings:
        print(f.format_text(), file=out)
    print(f"{len(findings)} finding(s)", file=out)
    return 1 if findings else 0
