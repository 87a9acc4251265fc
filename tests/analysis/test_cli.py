"""CLI behavior: exit codes, output format, self-cleanliness."""

import io
import os

import pytest

from repro.analysis.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))

ALL_RULES = ("SGB006",)


def run(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def bad_fixture(rule_id):
    return os.path.join(FIXTURES, f"sgb{rule_id[3:]}_bad.py")


def good_fixture(rule_id):
    return os.path.join(FIXTURES, f"sgb{rule_id[3:]}_good.py")


class TestExitCodes:
    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_each_bad_fixture_exits_nonzero(self, rule_id):
        code, out = run([bad_fixture(rule_id)])
        assert code == 1
        assert rule_id in out

    @pytest.mark.parametrize("rule_id", ALL_RULES)
    def test_each_good_fixture_exits_zero(self, rule_id):
        code, out = run([good_fixture(rule_id)])
        assert code == 0
        assert "0 finding(s)" in out


class TestFormats:
    def test_text_format_lines(self):
        _, out = run([bad_fixture("SGB006")])
        lines = [l for l in out.splitlines() if "SGB006" in l]
        assert len(lines) == 2
        # path:line:col: RULE message
        first = lines[0]
        path, line, col, rest = first.split(":", 3)
        assert path.endswith("sgb006_bad.py")
        assert int(line) > 0 and int(col) >= 0
        assert rest.strip().startswith("SGB006 raise ValueError")


class TestHelpers:
    def test_explain_prints_rule_doc(self):
        code, out = run(["--explain", "SGB006"])
        assert code == 0
        assert "SGB006" in out and "ReproError" in out

    def test_explain_unknown_rule(self):
        code, out = run(["--explain", "SGB123"])
        assert code == 2

    def test_list_rules(self):
        code, out = run(["--list-rules"])
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == \
            list(ALL_RULES)


class TestSelfClean:
    """The acceptance gate: the tree lints clean."""

    def test_repo_lints_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run(["src", "tests", "benchmarks"])
        assert code == 0, out

    def test_linter_package_needs_no_baseline(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code, out = run(["src/repro/analysis"])
        assert code == 0, out

    def test_fixture_walk_exclusion(self, monkeypatch):
        # Directory walks skip the deliberate-violation corpus...
        monkeypatch.chdir(REPO_ROOT)
        code, _ = run(["tests/analysis"])
        assert code == 0
        # ...unless explicitly included.
        code, _ = run(["--include-fixtures", "tests/analysis"])
        assert code == 1
