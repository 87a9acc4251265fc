"""Smoke tests: every experiment in the registry produces a sane report.

These run each experiment at tiny sizes; ``python -m repro.bench <id>``
runs them at quick (default) or ``--full`` size.
"""

import re
from pathlib import Path

import pytest

from repro.bench import experiments as ex
from repro.bench.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parents[2]


class TestRegistry:
    def test_every_paper_artifact_has_an_experiment(self):
        expected = {
            "table1", "table2",
            "fig9a", "fig9b", "fig9c", "fig9d",
            "fig10a", "fig10b", "fig10c", "fig10d",
            "fig11a", "fig11b", "fig12a", "fig12b",
            "quality", "distance-counts", "cost-model",
            "ablation-indexes", "ablation-hull", "ablation-fanout",
            "ablation-skew", "ablation-tiebreak", "ablation-rtree-build",
        }
        assert expected <= set(EXPERIMENTS)


class TestDocReferences:
    """The docs name only benchmark files and experiment ids that exist.
    ROADMAP.md and CHANGES.md are history and may name deleted ones."""

    DOCS = [*(ROOT / name for name in ("README.md", "CONTRIBUTING.md",
                                       "DESIGN.md", "EXPERIMENTS.md")),
            *sorted(ROOT.glob("docs/*.md"))]

    def test_benchmark_paths_exist(self):
        for doc in self.DOCS:
            text = doc.read_text(encoding="utf-8")
            for path in re.findall(r"benchmarks/[\w/]+\.py", text):
                assert (ROOT / path).is_file(), f"{doc.name} names {path}"

    def test_cli_ids_are_registered(self):
        for doc in self.DOCS:
            runs = re.findall(r"python -m repro\.bench((?:\s+[a-z][\w-]*)+)",
                              doc.read_text(encoding="utf-8"))
            for exp_id in " ".join(runs).split():
                assert exp_id == "all" or exp_id in EXPERIMENTS, (
                    f"{doc.name}: python -m repro.bench {exp_id}")

    def test_design_index_ids_are_registered(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        index = text.split("## Experiments index")[1].split("\n\n**")[0]
        ids = [i for row in index.splitlines()[3:]
               for i in re.findall(r"`([^`]+)`", row.split("|")[-2])]
        ablations = text.split("## Design choices worth ablating")[1]
        ids += re.findall(r"`(ablation-[\w-]+)`", ablations.split("\n## ")[0])
        assert "table1" in ids and "ablation-rtree-build" in ids
        assert set(ids) <= set(EXPERIMENTS), set(ids) - set(EXPERIMENTS)


class TestSmallRuns:
    def test_figure9_all_variant(self):
        report = ex.figure9("eliminate", n_points=120,
                            eps_values=(0.2, 0.6), quick=True)
        assert len(report.rows) == 2
        for row in report.rows:
            assert row["all-pairs"] > 0
            assert row["bounds-checking"] > 0
            assert row["index"] > 0
            assert row["groups"] >= 1

    def test_figure9_any_variant(self):
        report = ex.figure9("any", n_points=120, eps_values=(0.3,),
                            quick=True)
        assert report.columns == ["eps", "all-pairs", "index", "groups"]

    def test_figure10(self):
        report = ex.figure10("join-any", scale_factors=(0.5, 1), quick=True)
        ns = report.column("n_points")
        assert ns[1] > ns[0]

    def test_figure10_any(self):
        report = ex.figure10("any", scale_factors=(0.5,), quick=True)
        assert report.rows[0]["index"] > 0

    def test_figure11(self):
        report = ex.figure11("brightkite", sizes=(150,), quick=True)
        row = report.rows[0]
        for method in ("dbscan", "birch", "kmeans-20", "sgb-any",
                       "sgb-all-join-any"):
            assert row[method] > 0

    def test_figure12_panels(self):
        for panel in ("a", "b"):
            report = ex.figure12(panel, scale_factors=(0.5,), quick=True)
            row = report.rows[0]
            assert row["group-by"] > 0
            assert row["sgb-any"] > 0

    def test_table1_slopes_present(self):
        report = ex.table1(sizes=(60, 120), quick=True)
        assert len(report.rows) == 9  # 3 strategies x 3 clauses
        for row in report.rows:
            assert isinstance(row["slope"], float)

    def test_table2(self):
        report = ex.table2(scale_factor=0.5)
        assert len(report.rows) == 9
        assert all(row["seconds"] >= 0 for row in report.rows)

    def test_ablations(self):
        a = ex.ablation_indexes(sizes=(150,), quick=True)
        assert {"all-pairs", "rtree", "grid"} <= set(a.columns)
        b = ex.ablation_hull(sizes=(150,), quick=True)
        assert b.rows[0]["hull-on"] > 0
        c = ex.ablation_fanout(fanouts=(4, 8), n=150, quick=True)
        assert len(c.rows) == 2
        d = ex.ablation_skew(n=200, quick=True)
        assert len(d.rows) == 4
        assert all(row["groups-skewed"] <= row["groups-uniform"] + 50
                   for row in d.rows)
        e = ex.ablation_tiebreak(sizes=(150,), quick=True)
        assert e.rows[0]["first"] > 0 and e.rows[0]["random"] > 0
        f = ex.ablation_rtree_build(sizes=(150, 300), quick=True)
        assert f.column("n_points") == [150, 300]
        assert all(row["incremental"] > 0 and row["bulk"] > 0
                   for row in f.rows)

    def test_quality_experiment(self):
        report = ex.quality_comparison(n_points=200, eps_values=(0.2,),
                                       quick=True)
        row = report.rows[0]
        assert -1.0 <= row["ari(any,dbscan)"] <= 1.0
        assert row["groups(any)"] >= 1

    def test_distance_counts_show_savings(self):
        report = ex.distance_counts(n_points=300, eps_values=(0.2,),
                                    quick=True)
        row = report.rows[0]
        assert row["all: index"] * 5 < row["all: all-pairs"]
        assert row["any: index"] * 5 < row["any: all-pairs"]

    def test_cost_model_experiment(self):
        report = ex.cost_model_validation(n_points=300, quick=True)
        assert len(report.rows) == 3
        predicted = {row["strategy"]: row["predicted (dominant op)"]
                     for row in report.rows}
        assert (predicted["index"] < predicted["bounds-checking"]
                < predicted["all-pairs"])


class TestCLI:
    def test_main_runs_one_experiment(self, capsys):
        from repro.bench.__main__ import main

        # monkeypatch-free: run the cheapest experiment id
        rc = main(["table2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 2" in out

    def test_main_rejects_unknown(self):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_csv_flag(self, capsys):
        from repro.bench.__main__ import main

        main(["table2", "--csv"])
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("query,rows,seconds")

    def test_chart_flag(self, capsys):
        from repro.bench.__main__ import main

        main(["table2", "--chart"])
        out = capsys.readouterr().out
        assert "#" in out and "log scale" in out
