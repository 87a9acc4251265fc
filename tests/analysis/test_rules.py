"""Per-rule true-positive / true-negative tests over the fixture corpus,
plus pragma and module-identity behavior."""

import ast
import io
import os
import re

import pytest

from repro.analysis import lint_file, lint_source
from repro.analysis.cli import main
from repro.analysis.context import module_name_for_path
from repro.analysis.registry import all_rules, get_rule
from repro.engine import database as database_module

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def rules_hit(path):
    return {f.rule for f in lint_file(path)}


class TestRuleRegistry:
    def test_every_rule_cites_what_it_caught(self):
        """The admission test: a rule names the PR that ran it and the
        code fix its finding caused, and ``--explain`` shows it."""
        rules = all_rules()
        assert rules
        for rule in rules:
            assert re.match(r"PR \d+: \S", rule.caught), rule.id
            buf = io.StringIO()
            assert main(["--explain", rule.id], stdout=buf) == 0
            assert rule.caught in buf.getvalue(), rule.id

    def test_every_rule_has_an_explanation(self):
        for rule in all_rules():
            text = rule.explanation()
            assert len(text.splitlines()) >= 3, rule.id

    def test_get_rule_unknown_id(self):
        with pytest.raises(KeyError):
            get_rule("SGB999")


@pytest.mark.parametrize("rule_id,expected_bad_count", [
    ("SGB006", 2),
    ("SGB007", 2),
    ("SGB008", 2),
    ("SGB009", 2),
])
class TestFixtureCorpus:
    def test_bad_fixture_is_flagged(self, rule_id, expected_bad_count):
        path = fixture(f"sgb{rule_id[3:]}_bad.py")
        findings = [f for f in lint_file(path) if f.rule == rule_id]
        assert len(findings) == expected_bad_count
        for f in findings:
            assert f.line > 0
            assert f.message

    def test_bad_fixture_flags_nothing_else(self, rule_id,
                                            expected_bad_count):
        path = fixture(f"sgb{rule_id[3:]}_bad.py")
        assert rules_hit(path) == {rule_id}

    def test_good_fixture_is_clean(self, rule_id, expected_bad_count):
        path = fixture(f"sgb{rule_id[3:]}_good.py")
        assert lint_file(path) == []


class TestCancelCheckpointCone:
    """SGB009 follows ``_execute`` into helpers a base class defines, and
    exempts only loops over a ``self`` attribute itself."""

    def test_bad_fixture_is_flagged(self):
        findings = lint_file(fixture("sgb009_cone_bad.py"))
        assert [f.rule for f in findings] == ["SGB009", "SGB009"]
        inherited, alias = sorted(findings, key=lambda f: f.line)
        assert "ColumnBase._column() loop" in inherited.message
        assert "KeyedAggregate._execute() loop" in alias.message


class TestCancelCheckpointAtRowEntry:
    """Nothing checks the token at node edges, so yielding covers no
    loop: rows must enter the plan, and multiply, through a check."""

    def test_leaf_handing_out_table_rows_is_flagged(self):
        findings = lint_file(fixture("sgb009_leaf_bad.py"))
        assert [f.rule for f in findings] == ["SGB009"]
        assert "TableScan._execute() hands out rows" in findings[0].message
        assert "self._checked(rows)" in findings[0].message

    def test_unchecked_yielding_fanout_loop_is_flagged(self):
        findings = lint_file(fixture("sgb009_fanout_bad.py"))
        assert [f.rule for f in findings] == ["SGB009"]
        assert "ProbeJoin._execute() loop yields rows from data" in \
            findings[0].message
        # The inner probe loop, not the outer loop over the child.
        with open(fixture("sgb009_fanout_bad.py"), encoding="utf-8") as fh:
            flagged = fh.read().splitlines()[findings[0].line - 1]
        assert "unchecked fan-out" in flagged

    def test_check_outside_the_loop_covers_nothing(self):
        """A check in an enclosing or a sibling loop runs once per outer
        row at most: the per-row-work loop needs its own."""
        path = fixture("sgb009_outer_check_bad.py")
        findings = lint_file(path)
        assert [f.rule for f in findings] == ["SGB009", "SGB009"]
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for f in findings:
            assert "does per-row work on data" in f.message
            assert lines[f.line - 1].endswith(": flagged")


class TestSharedLockMode:
    """SGB007 on a shared/exclusive lock (``RWLock``): either mode guards
    a read, only the exclusive one a write."""

    def test_bad_fixture_is_flagged(self):
        findings = lint_file(fixture("sgb007_shared_bad.py"))
        assert [f.rule for f in findings] == ["SGB007", "SGB007"]
        read, write = findings
        assert "unguarded read of Catalog._tables in peek()" in read.message
        assert "put_quietly() under the shared mode" in write.message

    def test_good_fixture_is_clean(self):
        assert lint_file(fixture("sgb007_shared_good.py")) == []

    def test_planted_catalog_read_in_database_is_flagged(self):
        """Most ``Database.catalog`` reads hold the statement lock only
        shared; if SGB007 stopped counting that mode as holding the lock,
        no guard would be inferred and this straggler would go unseen."""
        path = database_module.__file__
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        database = next(
            node for node in ast.parse("".join(lines)).body
            if isinstance(node, ast.ClassDef) and node.name == "Database")
        lines.insert(database.end_lineno,
                     "\n    def planted(self, name):\n"
                     "        return self.catalog.get(name)\n")
        source = "".join(lines)
        findings = [f for f in lint_source(source, path=path)
                    if f.rule == "SGB007"]
        assert len(findings) == 1
        assert "read of Database.catalog in planted()" in \
            findings[0].message


class TestRuleDetails:
    """Spot checks on shapes the fixtures do not cover."""

    def test_sgb006_out_of_scope_module_ignored(self):
        src = "def f():\n    raise ValueError('fine here')\n"
        assert lint_source(src, module="repro.clustering.kmeans") == []

    def test_sgb006_bare_name_reraise_flagged(self):
        src = (
            "def f():\n"
            "    raise RuntimeError\n"
        )
        findings = lint_source(src, module="repro.sql.parser")
        assert [f.rule for f in findings] == ["SGB006"]

    def test_syntax_error_becomes_sgb000(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert [f.rule for f in findings] == ["SGB000"]
        assert "does not parse" in findings[0].message


class TestPragmas:
    SRC = "def f():\n    raise ValueError('x')\n"

    def test_same_line_disable(self):
        src = "def f():\n    raise ValueError('x')  # sgblint: disable=SGB006\n"
        assert lint_source(src, module="repro.engine.x") == []

    def test_disable_next_line(self):
        src = (
            "def f():\n"
            "    # sgblint: disable-next-line=SGB006 -- reason\n"
            "    raise ValueError('x')\n"
        )
        assert lint_source(src, module="repro.engine.x") == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = "def f():\n    raise ValueError('x')  # sgblint: disable=SGB007\n"
        findings = lint_source(src, module="repro.engine.x")
        assert [f.rule for f in findings] == ["SGB006"]

    def test_module_pragma_overrides_path(self):
        src = "# sgblint: module=repro.engine.fake\n" + self.SRC
        findings = lint_source(src, path="tests/somewhere/f.py")
        assert [f.rule for f in findings] == ["SGB006"]

    def test_explicit_module_beats_pragma(self):
        src = "# sgblint: module=repro.engine.fake\n" + self.SRC
        assert lint_source(src, module="repro.obs.x") == []


class TestModuleIdentity:
    @pytest.mark.parametrize("path,expected", [
        ("src/repro/core/sgb_all.py", "repro.core.sgb_all"),
        ("src/repro/kernels/__init__.py", "repro.kernels"),
        ("tests/analysis/test_rules.py", "tests.analysis.test_rules"),
        ("/abs/prefix/src/repro/sql/parser.py", "repro.sql.parser"),
        ("scratch/notes.py", "scratch.notes"),
    ])
    def test_module_name_for_path(self, path, expected):
        assert module_name_for_path(path) == expected
