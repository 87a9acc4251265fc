"""EXPLAIN surface tests: estimated rows/cost next to actuals, and the
SGB strategy chooser's pick with its provenance."""

import re

import pytest

from repro.engine.database import Database
from repro.stats.chooser import ANY_STRATEGIES

SGB_SQL = (
    "SELECT min(id), count(*) FROM pts "
    "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"
)


def _populated(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE pts (id int, x float, y float)")
    db.table("pts").insert_many(
        [(i, (i % 37) * 0.9, (i % 23) * 1.3) for i in range(600)]
    )
    db.execute("ANALYZE")
    return db


@pytest.fixture
def db():
    return _populated()


class TestExplainEstimates:
    def test_every_plan_line_has_cost_and_rows(self, db):
        plan = db.explain(
            "SELECT x, count(*) FROM pts WHERE y > 10 GROUP BY x"
        )
        node_lines = [l for l in plan.splitlines() if "-> " in l]
        assert node_lines
        for line in node_lines:
            assert re.search(r"cost=\d+\.\d\d\.\.\d+\.\d\d rows=\d+", line), line

    def test_explain_analyze_shows_estimates_and_actuals(self, db):
        res = db.execute("EXPLAIN ANALYZE SELECT count(*) FROM pts")
        text = "\n".join(row[0] for row in res.rows)
        for line in text.splitlines():
            if "-> " not in line:
                continue
            assert "rows=" in line and "actual rows=" in line, line

    def test_seqscan_estimate_matches_actual_exactly(self, db):
        res = db.execute("EXPLAIN ANALYZE SELECT * FROM pts")
        text = "\n".join(row[0] for row in res.rows)
        scan = next(l for l in text.splitlines() if "SeqScan" in l)
        est = int(re.search(r"rows=(\d+)\)", scan).group(1))
        actual = int(re.search(r"actual rows=(\d+)", scan).group(1))
        assert est == actual == 600

    def test_filter_estimate_in_sane_band_on_uniform_data(self, db):
        # y cycles uniformly over 23 values in [0, 28.6); y > 14 keeps ~half
        res = db.execute("EXPLAIN ANALYZE SELECT * FROM pts WHERE y > 14")
        text = "\n".join(row[0] for row in res.rows)
        filt = next(l for l in text.splitlines() if "Filter" in l)
        est = int(re.search(r"rows=(\d+)\)", filt).group(1))
        actual = int(re.search(r"actual rows=(\d+)", filt).group(1))
        assert actual > 0
        assert actual / 3 <= est <= actual * 3

    def test_plan_metrics_carry_estimates(self, db):
        metrics = db.analyze("SELECT count(*) FROM pts").metrics

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        for node in walk(metrics):
            assert "estimated_rows" in node
            assert "estimated_cost" in node


class TestChooserSurface:
    def test_auto_choice_logged_with_auto_provenance(self, db):
        # EXPLAIN names the rule; EXPLAIN ANALYZE what it picked.
        assert re.search(r"strategy=auto\b(?!/)", db.explain(SGB_SQL))
        plan = db.explain_analyze(SGB_SQL)
        match = re.search(r"strategy=([a-z,-]+)/(\w+)", plan)
        assert match, plan
        assert match.group(2) == "auto"
        assert set(match.group(1).split(",")) <= set(ANY_STRATEGIES)

    def test_flag_override_logged_with_flag_provenance(self):
        db = _populated(sgb_any_strategy="grid")
        plan = db.explain(SGB_SQL)
        assert "strategy=grid/flag" in plan

    def test_choice_invariant_memberships(self, db):
        auto_rows = sorted(db.execute(SGB_SQL).rows)
        for forced in ANY_STRATEGIES:
            forced_db = _populated(sgb_any_strategy=forced)
            assert sorted(forced_db.execute(SGB_SQL).rows) == auto_rows, forced
