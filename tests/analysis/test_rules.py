"""Per-rule true-positive / true-negative tests over the fixture corpus,
plus pragma and module-identity behavior."""

import io
import os
import re

import pytest

from repro.analysis import lint_file, lint_source
from repro.analysis.cli import main
from repro.analysis.context import module_name_for_path
from repro.analysis.registry import all_rules, get_rule

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
        src = "def f():\n    raise ValueError('x')  # sgblint: disable=SGB001\n"
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
