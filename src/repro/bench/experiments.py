"""One function per paper table/figure (see DESIGN.md experiments index).

Every function returns a :class:`~repro.bench.harness.Report` whose rows are
the series the paper plots.  ``quick=True`` (the CLI's default) shrinks
data sizes so every experiment runs in well under a minute; the CLI's
``--full`` flag lifts them for more separation between methods.  The
:data:`EXPERIMENTS` registry is the one place an experiment is defined.

Absolute runtimes are Python-scale, not the paper's C-inside-PostgreSQL
scale; what must (and does) reproduce is the *shape*: method orderings,
order-of-magnitude gaps, and growth exponents.  EXPERIMENTS.md records the
paper-vs-measured comparison for each experiment id.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import Report, fit_loglog_slope, normalize_points, time_call
from repro.clustering import birch, dbscan, kmeans
from repro.core.api import sgb_all, sgb_any
from repro.workloads import checkins as ck
from repro.workloads import queries as Q
from repro.workloads.tpch import TPCHGenerator, load_tpch

Point = Tuple[float, float]

_ALL_OVERLAPS = ("join-any", "eliminate", "form-new-group")


# ----------------------------------------------------------------------
# shared data extraction
# ----------------------------------------------------------------------
#: Side of the square the synthetic bench data lives in.  The paper sweeps
#: ε over 0.1–0.9 on raw TPC-H attributes, i.e. ε is small relative to the
#: attribute spread; a span of 20 keeps that property at bench scale while
#: still letting groups grow visibly as ε rises.
BENCH_SPAN = 20.0


def uniform_points(n: int, seed: int = 3, span: float = BENCH_SPAN) -> List[Point]:
    """Unskewed 2-D data in a ``span`` × ``span`` square (Figure 9 style)."""
    rng = random.Random(seed)
    return [(rng.random() * span, rng.random() * span) for _ in range(n)]


def skewed_points(n: int, seed: int = 3, span: float = BENCH_SPAN,
                  n_clusters: int = 5) -> List[Point]:
    """Skewed 2-D data: a Gaussian mixture inside the bench square.

    Figure 9's commentary attributes runtime wiggles to "the distribution
    of the experimental data"; the skew ablation quantifies that effect."""
    rng = random.Random(seed)
    centers = [(rng.random() * span, rng.random() * span)
               for _ in range(n_clusters)]
    std = span / 40.0
    return [
        (rng.gauss(cx, std), rng.gauss(cy, std))
        for cx, cy in (rng.choice(centers) for _ in range(n))
    ]


def tpch_buying_power_points(scale_factor: float, seed: int = 42) -> List[Point]:
    """The (account balance, buying power) pairs behind SGB1/SGB2,
    extracted and rescaled to the bench span — the paper times the SGB
    operator itself and 'disregards the data preprocessing time' (§8.3)."""
    gen = TPCHGenerator(scale_factor, seed=seed)
    balance = {ck_: ab for ck_, _, ab, _ in gen.tables["customer"]}
    power: Dict[int, float] = {}
    for _, ckey, total, _ in gen.tables["orders"]:
        power[ckey] = power.get(ckey, 0.0) + total
    points = [
        (balance[ckey], tp) for ckey, tp in power.items() if ckey in balance
    ]
    return [
        (x * BENCH_SPAN, y * BENCH_SPAN) for x, y in normalize_points(points)
    ]


# ----------------------------------------------------------------------
# Figure 9: effect of the similarity threshold ε
# ----------------------------------------------------------------------
def figure9(
    variant: str,
    n_points: int = 4000,
    eps_values: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    metric: str = "l2",
    quick: bool = True,
) -> Report:
    """ε-sweep runtimes.  ``variant``: join-any | eliminate |
    form-new-group | any."""
    if quick:
        n_points = min(n_points, 2000)
    points = uniform_points(n_points)
    if variant == "any":
        methods: List[Tuple[str, Callable[[float], object]]] = [
            ("all-pairs", lambda e: sgb_any(points, e, metric, "all-pairs")),
            ("index", lambda e: sgb_any(points, e, metric, "index")),
        ]
        fig_id = "Figure 9d"
    else:
        methods = [
            ("all-pairs",
             lambda e: sgb_all(points, e, metric, variant, "all-pairs",
                               tiebreak="first")),
            ("bounds-checking",
             lambda e: sgb_all(points, e, metric, variant, "bounds-checking",
                               tiebreak="first")),
            ("index",
             lambda e: sgb_all(points, e, metric, variant, "index",
                               tiebreak="first")),
        ]
        fig_id = {"join-any": "Figure 9a", "eliminate": "Figure 9b",
                  "form-new-group": "Figure 9c"}[variant]
    report = Report(
        fig_id,
        f"SGB ε-sweep, variant={variant}, n={n_points}, {metric}",
        ["eps"] + [name for name, _ in methods] + ["groups"],
        notes="times in seconds; paper expectation: index << bounds << "
              "all-pairs, gap grows as ε shrinks",
    )
    for eps in eps_values:
        row: Dict[str, object] = {"eps": eps}
        groups = None
        for name, fn in methods:
            secs, result = time_call(lambda fn=fn: fn(eps))
            row[name] = secs
            groups = result.n_groups
        row["groups"] = groups
        report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Figure 10: effect of the data size
# ----------------------------------------------------------------------
def figure10(
    variant: str,
    scale_factors: Sequence[float] = (1, 2, 4, 8, 16, 32),
    eps: float = 0.2,
    metric: str = "l2",
    quick: bool = True,
) -> Report:
    """Scale-factor sweep on the TPC-H-derived (ab, tp) attributes."""
    if quick:
        scale_factors = tuple(sf for sf in scale_factors if sf <= 8)
    if variant == "any":
        methods = [
            ("all-pairs", lambda pts: sgb_any(pts, eps, metric, "all-pairs")),
            ("index", lambda pts: sgb_any(pts, eps, metric, "index")),
        ]
        fig_id = "Figure 10d"
    else:
        methods = [
            ("bounds-checking",
             lambda pts: sgb_all(pts, eps, metric, variant,
                                 "bounds-checking", tiebreak="first")),
            ("index",
             lambda pts: sgb_all(pts, eps, metric, variant, "index",
                                 tiebreak="first")),
        ]
        fig_id = {"join-any": "Figure 10a", "eliminate": "Figure 10b",
                  "form-new-group": "Figure 10c"}[variant]
    report = Report(
        fig_id,
        f"SGB data-size sweep, variant={variant}, eps={eps}",
        ["scale_factor", "n_points"] + [name for name, _ in methods],
        notes="paper expectation: index grows near-linearly and stays below "
              "the alternative at every SF",
    )
    for sf in scale_factors:
        points = tpch_buying_power_points(sf)
        row: Dict[str, object] = {"scale_factor": sf, "n_points": len(points)}
        for name, fn in methods:
            secs, _ = time_call(lambda fn=fn: fn(points))
            row[name] = secs
        report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Figure 11: SGB vs clustering algorithms
# ----------------------------------------------------------------------
def figure11(
    dataset: str = "brightkite",
    sizes: Sequence[int] = (1000, 2000, 4000),
    eps: float = 0.2,
    quick: bool = True,
) -> Report:
    """Runtime of SGB variants vs DBSCAN / BIRCH / K-means on check-ins."""
    if quick:
        sizes = tuple(s for s in sizes if s <= 2000)
    maker = ck.brightkite if dataset == "brightkite" else ck.gowalla
    methods: List[Tuple[str, Callable[[List[Point]], object]]] = [
        ("dbscan", lambda pts: dbscan(pts, eps, min_pts=5)),
        ("birch", lambda pts: birch(pts, threshold=eps, n_clusters=40)),
        ("kmeans-40", lambda pts: kmeans(pts, 40, max_iter=30)),
        ("kmeans-20", lambda pts: kmeans(pts, 20, max_iter=30)),
        ("sgb-all-form-new",
         lambda pts: sgb_all(pts, eps, "l2", "form-new-group", "index",
                             tiebreak="first")),
        ("sgb-all-eliminate",
         lambda pts: sgb_all(pts, eps, "l2", "eliminate", "index",
                             tiebreak="first")),
        ("sgb-all-join-any",
         lambda pts: sgb_all(pts, eps, "l2", "join-any", "index",
                             tiebreak="first")),
        ("sgb-any", lambda pts: sgb_any(pts, eps, "l2", "index")),
    ]
    fig_id = "Figure 11a" if dataset == "brightkite" else "Figure 11b"
    report = Report(
        fig_id,
        f"SGB vs clustering on {dataset}-like check-ins, eps={eps}",
        ["n_points"] + [name for name, _ in methods],
        notes="paper expectation: every SGB variant beats every clustering "
              "baseline, by 1-3 orders of magnitude",
    )
    for size in sizes:
        data = maker(size)
        points = data.points()  # raw degrees, like the paper's lat/lon
        row: Dict[str, object] = {"n_points": size}
        for name, fn in methods:
            secs, _ = time_call(lambda fn=fn: fn(points))
            row[name] = secs
        report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Figure 12: SGB overhead vs standard GROUP BY
# ----------------------------------------------------------------------
def figure12(
    panel: str,
    scale_factors: Sequence[float] = (1, 2, 4),
    eps: float = 0.2,
    quick: bool = True,
) -> Report:
    """End-to-end SQL runtimes: GB2 vs SGB3/SGB4 ('a'), GB3 vs SGB5/SGB6
    ('b').  ε is interpreted on normalized attributes; the SQL queries use
    an equivalent absolute threshold derived per dataset below."""
    if quick:
        scale_factors = tuple(sf for sf in scale_factors if sf <= 2)
    if panel == "a":
        fig_id = "Figure 12a"
        gb_sql = lambda: Q.gb2()
        # profit/shiptime spread; absolute eps chosen to be ~0.2 of the range
        sgb_alls = [
            ("sgb3-join-any", lambda e: Q.sgb3(e, on_overlap="join-any")),
            ("sgb3-eliminate", lambda e: Q.sgb3(e, on_overlap="eliminate")),
            ("sgb3-form-new", lambda e: Q.sgb3(e, on_overlap="form-new-group")),
        ]
        sgb_any_sql = lambda e: Q.sgb4(e)
        eps_abs_of = lambda sf: eps * 2_000_000 * 1.0
    else:
        fig_id = "Figure 12b"
        gb_sql = lambda: Q.gb3()
        sgb_alls = [
            ("sgb5-join-any", lambda e: Q.sgb5(e, on_overlap="join-any")),
            ("sgb5-eliminate", lambda e: Q.sgb5(e, on_overlap="eliminate")),
            ("sgb5-form-new", lambda e: Q.sgb5(e, on_overlap="form-new-group")),
        ]
        sgb_any_sql = lambda e: Q.sgb6(e)
        eps_abs_of = lambda sf: eps * 1_000_000
    columns = (["scale_factor", "group-by"]
               + [name for name, _ in sgb_alls] + ["sgb-any"])
    report = Report(
        fig_id,
        f"SGB overhead vs standard GROUP BY (panel {panel}), eps={eps}",
        columns,
        notes="paper expectation: SGB runtimes comparable to GROUP BY "
              "(JOIN-ANY can even win; others within tens of percent)",
    )
    for sf in scale_factors:
        db = load_tpch(sf)
        eps_abs = eps_abs_of(sf)
        row: Dict[str, object] = {"scale_factor": sf}
        secs, _ = time_call(lambda: db.execute(gb_sql()))
        row["group-by"] = secs
        for name, make in sgb_alls:
            secs, _ = time_call(
                lambda make=make: db.execute(make(eps_abs))
            )
            row[name] = secs
        secs, _ = time_call(lambda: db.execute(sgb_any_sql(eps_abs)))
        row["sgb-any"] = secs
        report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Table 1: complexity validation
# ----------------------------------------------------------------------
def table1(
    sizes: Sequence[int] = (250, 500, 1000, 2000, 4000),
    eps: float = 0.05,
    metric: str = "linf",
    quick: bool = True,
) -> Report:
    """Empirical growth exponents for each (strategy × overlap clause).

    The paper's Table 1 gives asymptotic bounds; we time each cell across
    ``sizes`` and report the fitted log-log slope.  Expectation: the
    all-pairs column fits ~2 (quadratic), bounds-checking in between, the
    indexed strategy near 1 (n log |G|)."""
    if quick:
        sizes = tuple(s for s in sizes if s <= 1000)
    report = Report(
        "Table 1",
        f"SGB-All scaling exponents, eps={eps}, {metric}",
        ["strategy", "clause"]
        + [f"t(n={n})" for n in sizes]
        + ["slope"],
        notes="slope = d log(time) / d log(n); paper bounds: all-pairs "
              "O(n^2)/O(n^3), bounds O(n|G|), index O(n log |G|)",
    )
    for strategy in ("all-pairs", "bounds-checking", "index"):
        strat_sizes = sizes
        if strategy == "all-pairs":
            # quadratic baseline: cap its largest size so the sweep stays
            # bounded (the slope needs only the smaller points anyway)
            strat_sizes = tuple(s for s in sizes if s <= 2000)
        for clause in _ALL_OVERLAPS:
            times: List[float] = []
            for n in strat_sizes:
                points = uniform_points(n)
                secs, _ = time_call(
                    lambda: sgb_all(points, eps, metric, clause, strategy,
                                    tiebreak="first")
                )
                times.append(secs)
            row = {"strategy": strategy, "clause": clause,
                   "slope": fit_loglog_slope(strat_sizes, times)}
            for n, t in zip(strat_sizes, times):
                row[f"t(n={n})"] = t
            report.add_row(**row)
    return report


# ----------------------------------------------------------------------
# Table 2: the evaluation query catalog
# ----------------------------------------------------------------------
def table2_catalog() -> List[Tuple[str, str]]:
    """The nine Table-2 queries as ``(name, sql)``, in the paper's order.

    The e2e benchmark's ``tpch_table2`` workload runs its own list: SGB1
    and SGB2 at ε = 50000 there (500 here), and Q1, which runs only
    there.  ``experiment_results.txt`` records the values below."""
    return [
        ("GB1 (Q18)", Q.gb1(quantity_threshold=60)),
        ("GB2 (Q9)", Q.gb2()),
        ("GB3 (Q15)", Q.gb3()),
        ("SGB1 all", Q.sgb1(eps=500)),
        ("SGB2 any", Q.sgb2(eps=500)),
        ("SGB3 all", Q.sgb3(eps=5000, on_overlap="eliminate")),
        ("SGB4 any", Q.sgb4(eps=5000)),
        ("SGB5 all", Q.sgb5(eps=2000, on_overlap="form-new-group")),
        ("SGB6 any", Q.sgb6(eps=2000)),
    ]


def table2(scale_factor: float = 1.0, quick: bool = True) -> Report:
    """Run all nine Table-2 queries end-to-end through the SQL engine."""
    db = load_tpch(scale_factor)
    catalog = table2_catalog()
    report = Report(
        "Table 2",
        f"evaluation queries at SF={scale_factor}",
        ["query", "rows", "seconds"],
        notes="all queries execute through parser -> planner -> executor",
    )
    for name, sql in catalog:
        secs, result = time_call(lambda sql=sql: db.execute(sql))
        report.add_row(query=name, rows=len(result), seconds=secs)
    return report


# ----------------------------------------------------------------------
# ablations (DESIGN.md: design choices worth ablating)
# ----------------------------------------------------------------------
def ablation_indexes(
    sizes: Sequence[int] = (1000, 2000, 4000),
    eps: float = 0.05,
    quick: bool = True,
) -> Report:
    """SGB-Any: R-tree vs uniform grid vs all-pairs."""
    if quick:
        sizes = tuple(s for s in sizes if s <= 2000)
    report = Report(
        "Ablation A",
        f"SGB-Any index structures, eps={eps}",
        ["n_points", "all-pairs", "rtree", "grid"],
        notes="grid and R-tree should scale similarly; all-pairs "
              "quadratically",
    )
    for n in sizes:
        points = uniform_points(n)
        row: Dict[str, object] = {"n_points": n}
        for name, strat in (("all-pairs", "all-pairs"), ("rtree", "index"),
                            ("grid", "grid")):
            secs, _ = time_call(lambda s=strat: sgb_any(points, eps, "l2", s))
            row[name] = secs
        report.add_row(**row)
    return report


def ablation_hull(
    sizes: Sequence[int] = (500, 1000, 2000),
    eps: float = 0.1,
    quick: bool = True,
) -> Report:
    """SGB-All L2: convex-hull refinement on vs off (member-scan fallback)."""
    if quick:
        sizes = tuple(s for s in sizes if s <= 1000)
    report = Report(
        "Ablation B",
        f"convex-hull refinement for L2 SGB-All, eps={eps}",
        ["n_points", "hull-on", "hull-off"],
        notes="hull refinement should not be slower; it matters most with "
              "large groups",
    )
    for n in sizes:
        points = uniform_points(n)
        row: Dict[str, object] = {"n_points": n}
        for name, use_hull in (("hull-on", True), ("hull-off", False)):
            secs, _ = time_call(
                lambda u=use_hull: sgb_all(points, eps, "l2", "join-any",
                                           "index", tiebreak="first",
                                           use_hull=u)
            )
            row[name] = secs
        report.add_row(**row)
    return report


def ablation_skew(
    n: int = 2000,
    eps: float = 0.3,
    quick: bool = True,
) -> Report:
    """Uniform vs clustered (Gaussian-mixture) data for every SGB variant.

    Skew concentrates points, producing fewer, denser groups — JOIN-ANY
    gets cheaper (big cliques absorb points in O(1) rectangle tests) while
    ELIMINATE/FORM-NEW pay for heavier overlap processing."""
    if quick:
        n = min(n, 1500)
    report = Report(
        "Ablation D",
        f"data skew, n={n}, eps={eps}, index strategy",
        ["variant", "uniform", "skewed", "groups-uniform", "groups-skewed"],
        notes="Figure 9 attributes runtime wiggles to data distribution",
    )
    uniform = uniform_points(n)
    skewed = skewed_points(n)
    variants = [
        ("all/join-any",
         lambda pts: sgb_all(pts, eps, "l2", "join-any", "index",
                             tiebreak="first")),
        ("all/eliminate",
         lambda pts: sgb_all(pts, eps, "l2", "eliminate", "index",
                             tiebreak="first")),
        ("all/form-new",
         lambda pts: sgb_all(pts, eps, "l2", "form-new-group", "index",
                             tiebreak="first")),
        ("any", lambda pts: sgb_any(pts, eps, "l2", "index")),
    ]
    for name, fn in variants:
        t_uniform, r_uniform = time_call(lambda fn=fn: fn(uniform))
        t_skewed, r_skewed = time_call(lambda fn=fn: fn(skewed))
        report.add_row(**{
            "variant": name,
            "uniform": t_uniform,
            "skewed": t_skewed,
            "groups-uniform": r_uniform.n_groups,
            "groups-skewed": r_skewed.n_groups,
        })
    return report


def ablation_fanout(
    fanouts: Sequence[int] = (4, 8, 16, 32),
    n: int = 2000,
    eps: float = 0.05,
    quick: bool = True,
) -> Report:
    """R-tree fanout sensitivity for the SGB-Any index."""
    if quick:
        n = min(n, 1500)
    points = uniform_points(n)
    report = Report(
        "Ablation C",
        f"R-tree fanout for SGB-Any, n={n}, eps={eps}",
        ["max_entries", "seconds"],
        notes="runtime should be fairly flat across reasonable fanouts",
    )
    for m in fanouts:
        secs, _ = time_call(
            lambda m=m: sgb_any(points, eps, "l2", "index",
                                rtree_max_entries=m)
        )
        report.add_row(max_entries=m, seconds=secs)
    return report


def ablation_tiebreak(
    sizes: Sequence[int] = (1000, 2000, 4000),
    eps: float = 0.3,
    quick: bool = True,
) -> Report:
    """SGB-All JOIN-ANY: deterministic (``first``) vs ``random`` tie-break."""
    if quick:
        sizes = tuple(s for s in sizes if s <= 2000)
    report = Report(
        "Ablation E",
        f"JOIN-ANY tie-breaking for L2 SGB-All, eps={eps}",
        ["n_points", "first", "random"],
        notes="random draws one candidate group per ambiguous point",
    )
    for n in sizes:
        points = uniform_points(n)
        row: Dict[str, object] = {"n_points": n}
        for tiebreak in ("first", "random"):
            secs, _ = time_call(
                lambda t=tiebreak: sgb_all(points, eps, "l2", "join-any",
                                           "index", tiebreak=t)
            )
            row[tiebreak] = secs
        report.add_row(**row)
    return report


def ablation_rtree_build(
    sizes: Sequence[int] = (1000, 2000, 4000),
    quick: bool = True,
) -> Report:
    """R-tree construction: STR bulk loading vs one-at-a-time insertion,
    each timed as build plus one window query."""
    from repro.geometry.rectangle import Rect
    from repro.index.rtree import RTree

    if quick:
        sizes = tuple(s for s in sizes if s <= 2000)
    report = Report(
        "Ablation F",
        "R-tree build (max_entries=8) + one window query",
        ["n_points", "incremental", "bulk"],
        notes="STR packs ~full nodes in one pass; insertion splits as it goes",
    )
    window = Rect((5, 5), (8, 8))

    def incremental(entries):
        tree = RTree(max_entries=8)
        for rect, i in entries:
            tree.insert(rect, i)
        return tree.search(window)

    for n in sizes:
        entries = [(Rect.from_point(p), i)
                   for i, p in enumerate(uniform_points(n))]
        t_incremental, _ = time_call(lambda e=entries: incremental(e))
        t_bulk, _ = time_call(
            lambda e=entries: RTree.bulk_load(e, max_entries=8).search(window))
        report.add_row(n_points=n, incremental=t_incremental, bulk=t_bulk)
    return report


def distance_counts(
    n_points: int = 2000,
    eps_values: Sequence[float] = (0.1, 0.3, 0.6),
    quick: bool = True,
) -> Report:
    """Machine-independent validation of the filter-refine savings.

    Counts similarity-predicate evaluations per strategy — the quantity the
    paper's optimizations actually reduce.  All-Pairs needs Θ(n·seen)
    evaluations; Bounds-Checking/Index replace member scans with rectangle
    (and hull) tests, so their counts collapse by orders of magnitude —
    visible here without any wall-clock noise.
    """
    from repro.core.sgb_all import SGBAllOperator
    from repro.core.sgb_any import SGBAnyOperator

    if quick:
        n_points = min(n_points, 1500)
    points = uniform_points(n_points)
    report = Report(
        "Distance counts",
        f"similarity-predicate evaluations, n={n_points}, l2",
        ["eps", "all: all-pairs", "all: bounds", "all: index",
         "any: all-pairs", "any: index"],
        notes="counts, not seconds — the paper's savings in pure form",
    )
    for eps in eps_values:
        row: Dict[str, object] = {"eps": eps}
        for label, strategy in (("all: all-pairs", "all-pairs"),
                                ("all: bounds", "bounds-checking"),
                                ("all: index", "index")):
            op = SGBAllOperator(eps, "l2", "eliminate", strategy,
                                tiebreak="first")
            op.add_many(points).finalize()
            row[label] = op.stats.distance_computations
        for label, strategy in (("any: all-pairs", "all-pairs"),
                                ("any: index", "index")):
            op = SGBAnyOperator(eps, "l2", strategy)
            op.add_many(points).finalize()
            row[label] = op.stats.distance_computations
        report.add_row(**row)
    return report


def cost_model_validation(
    n_points: int = 1500,
    eps: float = 0.5,
    quick: bool = True,
) -> Report:
    """Appendix cost model vs measured operation counts.

    Predicted counts use the appendix's closed forms with the *measured*
    group count; measured distance evaluations come from CountingMetric.
    The primitives differ per strategy (distances vs rectangle tests vs
    node visits), so the comparison is about orderings and magnitudes.
    """
    from repro.bench.cost_model import CostModel
    from repro.core.sgb_all import SGBAllOperator

    if quick:
        n_points = min(n_points, 1000)
    points = uniform_points(n_points)
    # one run to learn |G|
    probe = sgb_all(points, eps, "l2", "eliminate", "index",
                    tiebreak="first")
    model = CostModel(n_points, probe.n_groups)
    report = Report(
        "Cost model",
        f"appendix predictions vs measured, n={n_points}, eps={eps}, "
        f"|G|={probe.n_groups}",
        ["strategy", "predicted (dominant op)", "measured distance evals"],
        notes="predictions use the appendix closed forms with measured |G|",
    )
    predictions = {
        "all-pairs": model.all_pairs_distance_evaluations(),
        "bounds-checking": model.bounds_checking_rectangle_tests(),
        "index": model.indexed_node_inspections(),
    }
    for strategy, predicted in predictions.items():
        op = SGBAllOperator(eps, "l2", "eliminate", strategy,
                            tiebreak="first")
        op.add_many(points).finalize()
        report.add_row(**{
            "strategy": strategy,
            "predicted (dominant op)": predicted,
            "measured distance evals": op.stats.distance_computations,
        })
    return report


def quality_comparison(
    n_points: int = 2000,
    eps_values: Sequence[float] = (0.1, 0.2, 0.4),
    quick: bool = True,
) -> Report:
    """Beyond the paper: how do the groupings *relate*, not just how fast?

    Adjusted Rand Index between SGB variants and DBSCAN on check-in data.
    SGB-Any finds the same connected structure DBSCAN does (minus the
    density requirement), so their agreement should be high; SGB-All's
    clique constraint fragments dense regions, so its agreement drops as
    ε grows.
    """
    from repro.bench.quality import adjusted_rand_index, filter_assigned
    from repro.clustering import dbscan

    if quick:
        n_points = min(n_points, 1000)
    points = ck.brightkite(n_points).points()
    report = Report(
        "Quality",
        f"ARI of SGB variants vs DBSCAN, n={n_points}",
        ["eps", "ari(any,dbscan)", "ari(all-join-any,dbscan)",
         "ari(all-eliminate,any)", "groups(any)"],
        notes="SGB-Any ~ DBSCAN structure; SGB-All fragments dense regions",
    )
    for eps in eps_values:
        db_labels = dbscan(points, eps, min_pts=5).labels
        any_res = sgb_any(points, eps, "l2", "index")
        all_res = sgb_all(points, eps, "l2", "join-any", "index",
                          tiebreak="first")
        elim_res = sgb_all(points, eps, "l2", "eliminate", "index",
                           tiebreak="first")
        a, b = filter_assigned(any_res.labels, db_labels)
        ari_any = adjusted_rand_index(a, b)
        a, b = filter_assigned(all_res.labels, db_labels)
        ari_all = adjusted_rand_index(a, b)
        a, b = filter_assigned(elim_res.labels, any_res.labels)
        ari_elim = adjusted_rand_index(a, b)
        report.add_row(**{
            "eps": eps,
            "ari(any,dbscan)": ari_any,
            "ari(all-join-any,dbscan)": ari_all,
            "ari(all-eliminate,any)": ari_elim,
            "groups(any)": any_res.n_groups,
        })
    return report


# ----------------------------------------------------------------------
# registry for the CLI
# ----------------------------------------------------------------------
EXPERIMENTS: Dict[str, Callable[..., Report]] = {
    "table1": lambda quick=True: table1(quick=quick),
    "table2": lambda quick=True: table2(quick=quick),
    "fig9a": lambda quick=True: figure9("join-any", quick=quick),
    "fig9b": lambda quick=True: figure9("eliminate", quick=quick),
    "fig9c": lambda quick=True: figure9("form-new-group", quick=quick),
    "fig9d": lambda quick=True: figure9("any", quick=quick),
    "fig10a": lambda quick=True: figure10("join-any", quick=quick),
    "fig10b": lambda quick=True: figure10("eliminate", quick=quick),
    "fig10c": lambda quick=True: figure10("form-new-group", quick=quick),
    "fig10d": lambda quick=True: figure10("any", quick=quick),
    "fig11a": lambda quick=True: figure11("brightkite", quick=quick),
    "fig11b": lambda quick=True: figure11("gowalla", quick=quick),
    "fig12a": lambda quick=True: figure12("a", quick=quick),
    "fig12b": lambda quick=True: figure12("b", quick=quick),
    "quality": lambda quick=True: quality_comparison(quick=quick),
    "distance-counts": lambda quick=True: distance_counts(quick=quick),
    "cost-model": lambda quick=True: cost_model_validation(quick=quick),
    "ablation-indexes": lambda quick=True: ablation_indexes(quick=quick),
    "ablation-hull": lambda quick=True: ablation_hull(quick=quick),
    "ablation-fanout": lambda quick=True: ablation_fanout(quick=quick),
    "ablation-skew": lambda quick=True: ablation_skew(quick=quick),
    "ablation-tiebreak": lambda quick=True: ablation_tiebreak(quick=quick),
    "ablation-rtree-build": lambda quick=True: ablation_rtree_build(quick=quick),
}
