"""The traced pass: per-layer metrics, measured from outside.

End-to-end numbers never come from here.  This pass spawns its own
server, and for every statement of the workload alternates one wire
request with an in-process *staged replay* of the same request —
``wire.loads`` → ``parse`` → ``plan_query`` → ``plan.rows()`` →
``encode_result``/``dumps`` → client ``loads``/``decode_result`` — so the
stages and the wire latency they are compared with see the same machine
state.  Each stage is a span kept in memory and written to
``out/trace_<workload>.jsonl`` at the end; a stage's self time is its
span minus its children.  Layer probes (index, kernels, streaming, …) run
on the workload's own points.

A probe whose public entry point is missing (say, after a strategy diet
removes an index) reports ``None`` and is listed under
``layers_missing``; nothing else depends on it.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cancel import CancelToken
from repro.engine.database import Database, QueryResult
from repro.engine.executor.base import attach_cancel
from repro.errors import ReproError
from repro.service import wire

from calibrate import Calibrator, at_reference_speed
from loadgen import (
    RoundResult,
    ServerProc,
    quantile,
    run_round,
    send,
)
from workloads import (
    CHEAP_RATE_OPS_S,
    IngestStream,
    Lane,
    Op,
    Point,
    Workload,
    response_value,
    sgb_points,
)

#: Share of ``--seconds`` each timed phase of the pass gets.
BUDGET_SHARE = 0.35
ROUND_SHARE = 0.3       # four rounds: untraced, trace-on, and again
LOCK_SHARE = 0.2
#: Probe inputs are capped so the pass stays inside one run's time.
PROBE_POINTS = 5000


def _ms(seconds: float) -> float:
    return seconds * 1e3


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    # Not repro.bench.harness.time_call: ROADMAP has repro.bench down for
    # a move, and the benchmark has to outlive it unedited.
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def median_time(fn: Callable[[], Any], reps: int) -> float:
    return statistics.median(timed(fn)[0] for _ in range(reps))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans: ``(name, start, end, parent, request_id)``."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._request = ""

    @contextmanager
    def request(self, request_id: str, name: str = "request") -> Iterator[None]:
        """The root span of one request; spans opened inside share its id."""
        self._request = request_id
        with self.span(name):
            yield

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        rec: Dict[str, Any] = {
            "id": len(self.spans), "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request_id": self._request, "workload": self.workload,
            "start": time.perf_counter(), "end": None,
        }
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per span name (span minus its children)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time[s["id"]]
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# staged replay
# ----------------------------------------------------------------------
def find_sgb_node(plan: Any) -> Optional[Any]:
    """The similarity aggregate of a plan, found by its public fields."""
    if getattr(plan, "mode", None) in ("all", "any") and hasattr(plan, "eps"):
        return plan
    for child in plan.children():
        found = find_sgb_node(child)
        if found is not None:
            return found
    return None


def staged_replay(db: Database, op: Op, rid: str, log: SpanLog) -> float:
    """One request replayed in-process, stage by stage; returns the time
    the engine stages took (what ``Database.query`` would have covered)."""
    from repro.sql.parser import parse
    from repro.sql.planner import Planner

    field = "name" if op.kind == "stream" else "sql"
    request = wire.dumps({"id": rid, "op": op.kind, field: op.arg})
    payload: Dict[str, Any] = {"id": rid, "ok": True}
    with log.request(rid):
        with log.span("service.wire.request_decode"):
            msg = wire.loads(request)
        t0 = time.perf_counter()
        if op.kind == "query":
            with log.span("sql.parser.parse"):
                stmt = parse(msg["sql"])[0]
            with log.span("sql.planner.plan"):
                plan = Planner(db.catalog, db.sgb_config).plan_query(stmt)
            # The service always runs with a cancel token attached.
            attach_cancel(plan, CancelToken(label=rid))
            with log.span("engine.execute"):
                result: Any = QueryResult(plan.schema.names(), plan.rows())
        elif op.kind == "execute":
            with log.span("engine.execute"):
                result = db.execute(msg["sql"], cancel=CancelToken(label=rid))
        else:
            with log.span("engine.execute"):
                snap = db.stream_snapshot(msg["name"])
                result = {
                    "n_points": snap.n_points, "n_groups": snap.n_groups,
                    "n_eliminated": snap.n_eliminated,
                    "labels": list(snap.labels),
                    "group_sizes": snap.group_sizes(),
                }
        engine_s = time.perf_counter() - t0
        with log.span("service.wire.result_encode"):
            if op.kind == "stream":
                payload["snapshot"] = result
            else:
                payload["result"] = wire.encode_result(result)
            response = wire.dumps(payload)
        with log.span("service.wire.result_decode"):
            decoded = wire.loads(response)
            if op.kind != "stream":
                wire.decode_result(decoded["result"])
    if op.kind == "execute":
        # parse happens inside Database.execute; time the same text on
        # its own, outside the request, so it is shown but not summed.
        with log.span("sql.parser.parse", probe=True):
            parse(op.arg)
    return engine_s


def sgb_breakdown(db: Database, op: Op, rid: str, log: SpanLog,
                  points_cache: Dict[str, Any]) -> bool:
    """On a second fresh plan: drain the SGB node's child subtree, then
    call ``repro.core.api`` on the statement's points with the strategy
    the planner chose.  False when the plan has no SGB node."""
    from repro.core import api
    from repro.sql.parser import parse
    from repro.sql.planner import Planner

    plan = Planner(db.catalog, db.sgb_config).plan_query(parse(op.arg)[0])
    node = find_sgb_node(plan)
    if node is None:
        return False
    if op.key not in points_cache:
        points_cache[op.key] = sgb_points(db, op.arg)
    points = points_cache[op.key]
    with log.request(rid + "#breakdown", "engine.execute.breakdown"):
        with log.span("engine.sgb_input") as sp:
            sp["rows"] = sum(1 for _ in node.children()[0])
        if node.mode == "any":
            with log.span("core.sgb_any", strategy=node.strategy):
                api.sgb_any(points, node.eps, metric=node.metric,
                            strategy=node.strategy)
        else:
            clause = str(node.on_overlap).lower().replace("-", "_")
            with log.span(f"core.sgb_all.{clause}", strategy=node.strategy):
                api.sgb_all(points, node.eps, metric=node.metric,
                            on_overlap=node.on_overlap,
                            strategy=node.strategy,
                            tiebreak=db.sgb_config.tiebreak,
                            seed=db.sgb_config.seed)
    return True


# ----------------------------------------------------------------------
# the budget phase
# ----------------------------------------------------------------------
def _until(ops: Sequence[Op], cyclic: bool, deadline: float) -> Iterator[Op]:
    """A cyclic schedule: whole cycles until the deadline, at least one.
    A finite one (ingest): in order until the deadline."""
    done_one = False
    while True:
        for i, op in enumerate(ops):
            if time.perf_counter() >= deadline and (
                    (cyclic and i == 0 and done_one) or (not cyclic and i)):
                return
            yield op
        if not cyclic:
            return
        done_one = True


def budget_phase(workload: Workload, db: Database, client: Any,
                 log: SpanLog, seconds: float) -> Dict[str, Any]:
    """Wire request, staged replay, direct call and SGB breakdown,
    interleaved statement by statement, for ``seconds`` (at least one
    full cycle of a cyclic schedule)."""
    ops = workload.replay_ops(2)
    wire_ms: List[float] = []
    direct_ms: List[float] = []
    staged_select_s = direct_select_s = 0.0
    failed = 0
    points_cache: Dict[str, Any] = {}
    sgb_rids: set = set()
    deadline = time.perf_counter() + seconds
    n = 0
    cyclic = workload.lanes(seconds)[0].cyclic
    for op in _until(ops, cyclic, deadline):
        rid = f"{workload.name}-{n}"
        n += 1
        t0 = time.perf_counter()
        try:
            response = send(client, op)
        except (ReproError, OSError) as exc:
            response = exc
        wire_ms.append(_ms(time.perf_counter() - t0))
        if (isinstance(response, Exception)
                or response_value(op.kind, response)
                != workload.expected.get(op.key)):
            failed += 1
        if op.kind != "query":
            direct_ms.append(_ms(staged_replay(db, op, rid, log)))
            continue

        def direct() -> float:
            return timed(
                lambda: db.query(op.arg, cancel=CancelToken(label=rid)))[0]

        # Whichever runs second finds the rows warm in cache; alternate.
        if n % 2:
            engine_s, direct_s = staged_replay(db, op, rid, log), direct()
        else:
            direct_s, engine_s = direct(), staged_replay(db, op, rid, log)
        staged_select_s += engine_s
        direct_select_s += direct_s
        direct_ms.append(_ms(direct_s))
        if sgb_breakdown(db, op, rid, log, points_cache):
            sgb_rids.add(rid)
    return {
        "ops": n, "failed": failed, "wire_ms": wire_ms,
        "direct_ms": direct_ms, "sgb_rids": sgb_rids,
        "trace_overhead_ratio": (
            staged_select_s / direct_select_s if direct_select_s else None
        ),
    }


# ----------------------------------------------------------------------
# service-side phases
# ----------------------------------------------------------------------
def _hist_mean_ms(before: Dict, after: Dict, name: str) -> float:
    total = (after[(f"repro_{name}_seconds_sum", ())]
             - before[(f"repro_{name}_seconds_sum", ())])
    count = (after[(f"repro_{name}_seconds_count", ())]
             - before[(f"repro_{name}_seconds_count", ())])
    return _ms(total / count) if count else 0.0


def wire_round(server: ServerProc, workload: Workload, round_index: int,
               seconds: float) -> RoundResult:
    lanes = workload.lanes(seconds)
    with server.clients(len(lanes)) as clients:
        return run_round(server, workload, lanes, clients, round_index,
                         seconds)


def round_phase(server: ServerProc, traced_server: ServerProc,
                workload: Workload, client: Any, seconds: float,
                ) -> Tuple[Dict[str, float], List[RoundResult],
                           List[RoundResult]]:
    """Short wire rounds alternating between the untraced server and one
    started with ``Database(trace=True)`` (``obs.trace_on_ratio`` is the
    ratio of their latencies); the ``metrics`` op brackets the untraced
    server's share.  Returns the scheduler metrics and both round lists."""
    from repro.obs.export import parse_prometheus_text

    before = parse_prometheus_text(client.metrics())
    off: List[RoundResult] = []
    on: List[RoundResult] = []
    for round_index in (0, 3):
        off.append(wire_round(server, workload, round_index, seconds / 4))
        on.append(wire_round(traced_server, workload, round_index,
                             seconds / 4))
    after = parse_prometheus_text(client.metrics())

    def delta(counter: str) -> float:
        key = (f"repro_{counter}_total", ())
        return after[key] - before[key]

    return {
        "service.scheduler.queue_wait_ms":
            _hist_mean_ms(before, after, "service_queue_wait_latency"),
        "service.scheduler.exec_ms":
            _hist_mean_ms(before, after, "service_exec_latency"),
        "service.rejected": delta("service_rejected"),
        "service.errors": delta("service_errors"),
    }, off, on


def lock_phase(server: ServerProc, workload: Workload, client: Any,
               seconds: float) -> Tuple[Dict[str, float], RoundResult]:
    """The cheap statement alone, then open-loop beside the workload's
    own closed-loop lane."""
    cheap = workload.cheap_op()
    send(client, cheap)  # warm
    solo = [_ms(timed(lambda: send(client, cheap))[0]) for _ in range(30)]
    lanes = [workload.lanes(seconds)[0],
             Lane("B", CHEAP_RATE_OPS_S, lambda _round: [cheap], True,
                  workload.seed)]
    shim = SimpleNamespace(expected=workload.expected,
                           latency_cls=frozenset({"cheap"}),
                           throughput_cls=frozenset())
    with server.clients(len(lanes)) as clients:
        result = run_round(server, shim, lanes, clients, 1, seconds)
    cheap_recs = [r for r in result.ok if r.op.cls == "cheap"]
    solo_p50 = statistics.median(solo)
    in_flight = [_ms(r.done - r.sent) for r in cheap_recs]
    return {
        "engine.cheap_solo_ms": solo_p50,
        "engine.lock_wait_ms": (
            statistics.fmean(in_flight) - statistics.fmean(solo)
            if in_flight else float("nan")),
        "engine.lock_inflation": result.metrics["p50_ms"] / solo_p50,
        "gen.late_p90_ms": quantile(
            [_ms(r.sent - r.due) for r in result.records
             if r.op.cls == "cheap"], 0.9),
    }, result


# ----------------------------------------------------------------------
# in-process layer probes
# ----------------------------------------------------------------------
def probe_service(client: Any) -> Dict[str, float]:
    from repro.service import QueryScheduler

    client.ping()
    client.query("SELECT 1")
    out = {
        "service.rtt_ping_us": median_time(client.ping, 300) * 1e6,
        "service.rtt_select1_ms":
            _ms(median_time(lambda: client.query("SELECT 1"), 150)),
    }
    with QueryScheduler(workers=2, queue_depth=64) as scheduler:
        out["service.scheduler.dispatch_us"] = median_time(
            lambda: scheduler.submit(lambda: None).result(), 300) * 1e6
    return out


def probe_counts(db: Database, workload: Workload) -> Dict[str, float]:
    """Exact work counts of one cycle from ``Database.analyze`` (counts
    only: its timings run under tracemalloc and are not used)."""
    names = ("index_probes", "candidates", "distance_computations",
             "groups_merged", "eliminated")
    totals = dict.fromkeys(names + ("rows_spooled",), 0)
    for op in workload.read_ops():
        counters = db.analyze(op.arg).node_counters()
        for name in totals:
            totals[name] += int(counters.get(name, 0))
    out: Dict[str, float] = {f"core.{n}": totals[n] for n in names}
    out["core.candidates_per_probe"] = (
        totals["candidates"] / totals["index_probes"]
        if totals["index_probes"] else 0.0
    )
    out["engine.rows_spooled"] = totals["rows_spooled"]
    return out


def _window_probe_us(index: Any, pts: Sequence[Point], eps: float) -> float:
    """One eps-window ``search`` per point; mean microseconds."""
    from repro.geometry.rectangle import Rect

    probe_s, _ = timed(lambda: [
        index.search(Rect([v - eps for v in p], [v + eps for v in p]))
        for p in pts
    ])
    return probe_s / len(pts) * 1e6


def probe_index_grid(pts: Sequence[Point], eps: float) -> Dict[str, float]:
    from repro.index.grid import GridIndex

    items = [(p, i) for i, p in enumerate(pts)]
    build_s, grid = timed(lambda: GridIndex.bulk_build(items, eps))
    return {"index.grid.build_ms": _ms(build_s),
            "index.grid.probe_us": _window_probe_us(grid, pts, eps)}


def probe_index_rtree(pts: Sequence[Point], eps: float) -> Dict[str, float]:
    from repro.geometry.rectangle import Rect
    from repro.index.rtree import RTree

    entries = [(Rect.from_point(p), i) for i, p in enumerate(pts)]
    build_s, tree = timed(lambda: RTree.bulk_load(entries, max_entries=16))
    return {"index.rtree.build_ms": _ms(build_s),
            "index.rtree.probe_us": _window_probe_us(tree, pts, eps)}


def probe_kernels(pts: Sequence[Point], eps: float) -> Dict[str, float]:
    from repro import kernels
    from repro.core.distance import resolve_metric

    metric = resolve_metric("l2")
    block, q = list(pts[:64]), pts[0]
    return {
        "kernels.pairwise_within_us": median_time(
            lambda: kernels.pairwise_within(block, q, eps, metric), 500
        ) * 1e6,
        "kernels.batch_eps_neighbors_ms": _ms(median_time(
            lambda: kernels.batch_eps_neighbors(
                pts, list(pts[:512]), eps, metric), 5)),
    }


def probe_dsu(pts: Sequence[Point], eps: float) -> Dict[str, float]:
    from repro.dsu import UnionFind

    n = max(len(pts), 2)
    uf = UnionFind(range(n))
    pairs = [(i, (i * 7 + 1) % n) for i in range(n)]
    s, _ = timed(lambda: [uf.union(a, b) for a, b in pairs])
    return {"dsu.union_us": s / n * 1e6}


def probe_streaming(pts: Sequence[Point], eps: float) -> Dict[str, float]:
    from repro.core.api import sgb_stream

    stream = sgb_stream("any", eps=eps, batch_size=32)
    ingest_s, _ = timed(lambda: stream.extend(pts))
    snapshot_s = median_time(stream.snapshot, 3)
    return {
        "streaming.insert_us_per_row": ingest_s / len(pts) * 1e6,
        "streaming.snapshot_ms": _ms(snapshot_s),
        "streaming.index_probes": stream.stats.index_probes,
        "streaming.candidates": stream.stats.candidates,
    }


def probe_parallel(pts: Sequence[Point], eps: float) -> Dict[str, float]:
    from repro.core.api import sgb_any

    keys = [i % 8 for i in range(len(pts))]
    return {
        "core.parallel.serial_ms": _ms(median_time(
            lambda: sgb_any(pts, eps, partitions=keys, parallel=0), 1)),
        "core.parallel.pool2_ms": _ms(median_time(
            lambda: sgb_any(pts, eps, partitions=keys, parallel=2), 1)),
    }


def probe_insert(workload: Workload) -> Dict[str, float]:
    """The 40-row INSERT in-process, with and without a stream view."""
    from repro.sql.parser import parse

    ingest = IngestStream(workload.seed, workload.scale)
    inserts = [op.arg for op in ingest.schedule(0)
               if op.cls == "insert"][:64]
    per = ingest.ROWS_PER_INSERT
    times: Dict[bool, float] = {}
    for with_view in (False, True):
        db = Database()
        ingest.populate(db)
        if not with_view:
            db.drop_stream_view("live_r0")
        times[with_view] = statistics.median(
            timed(lambda: db.execute(sql))[0] for sql in inserts
        )
    return {
        "sql.parser.parse_insert_ms": _ms(statistics.median(
            timed(lambda: parse(sql))[0] for sql in inserts)),
        "engine.insert_ms": _ms(times[True]),
        "engine.insert_rows_per_s": per / times[True],
        "streaming.view_overhead_ms": _ms(times[True] - times[False]),
    }


# ----------------------------------------------------------------------
def budget_table(log: SpanLog, budget: Dict[str, Any],
                 rtt_ping_us: Optional[float],
                 dispatch_us: Optional[float],
                 ) -> Tuple[Dict[str, Optional[float]], Dict[str, float]]:
    """Stage means per op of the budget phase: the layer metrics they
    define, and the plan-shaped budget against the mean wire latency."""
    n_ops = budget["ops"]
    self_s = log.self_seconds()
    # INSERTs are parsed inside Database.execute; their separately timed
    # parse is reported but must not be summed a second time.
    inner_parse_s = sum(s["end"] - s["start"] for s in log.spans
                        if s.get("probe"))
    sgb_execute_s = sum(
        s["end"] - s["start"] for s in log.spans
        if s["name"] == "engine.execute"
        and s["request_id"] in budget["sgb_rids"]
    )

    def per_op_ms(seconds: float) -> float:
        return _ms(seconds / n_ops)

    def stage_ms(stage: str) -> float:
        return per_op_ms(self_s.get(stage, 0.0))

    core = {"core.sgb_any.ms": stage_ms("core.sgb_any")}
    for clause in ("join_any", "eliminate", "form_new_group"):
        core[f"core.sgb_all.{clause}_ms"] = stage_ms(f"core.sgb_all.{clause}")
    execute = stage_ms("engine.execute")
    sgb_input = stage_ms("engine.sgb_input")
    sgb_self = per_op_ms(sgb_execute_s) - sgb_input - sum(core.values())
    metrics: Dict[str, Optional[float]] = {
        "service.wire.request_decode_us":
            stage_ms("service.wire.request_decode") * 1e3,
        "service.wire.result_encode_ms":
            stage_ms("service.wire.result_encode"),
        "service.wire.result_decode_ms":
            stage_ms("service.wire.result_decode"),
        "sql.parser.parse_ms": stage_ms("sql.parser.parse"),
        "sql.planner.plan_ms": stage_ms("sql.planner.plan"),
        "engine.execute_ms": execute,
        "engine.sgb_input_ms": sgb_input,
        "engine.sgb_self_ms": sgb_self,
        "service.overhead_ms": (statistics.median(budget["wire_ms"])
                                - statistics.median(budget["direct_ms"])),
        "bench.trace_overhead_ratio": budget["trace_overhead_ratio"],
    }
    metrics.update(core)

    wire_mean = statistics.fmean(budget["wire_ms"])
    table: Dict[str, float] = {"wire latency (mean)": wire_mean}
    attributed = 0.0

    def row(stage: str, ms: float, summed: bool = True) -> None:
        nonlocal attributed
        table[stage if summed else "  " + stage] = ms
        attributed += ms if summed else 0.0

    row("service.rtt_ping", (rtt_ping_us or 0.0) / 1e3)
    row("service.scheduler.dispatch", (dispatch_us or 0.0) / 1e3)
    row("service.wire.request_decode",
        stage_ms("service.wire.request_decode"))
    row("sql.parser.parse",
        stage_ms("sql.parser.parse") - per_op_ms(inner_parse_s))
    row("sql.planner.plan", stage_ms("sql.planner.plan"))
    row("engine.execute", execute)
    row("engine.sgb_input", sgb_input, summed=False)
    for name, ms in core.items():
        row(name.replace(".ms", "").replace("_ms", ""), ms, summed=False)
    row("engine.sgb_self", sgb_self, summed=False)
    row("engine.execute of statements without SGB",
        execute - per_op_ms(sgb_execute_s), summed=False)
    if inner_parse_s:
        row("sql.parser.parse inside execute", per_op_ms(inner_parse_s),
            summed=False)
    row("service.wire.result_encode", stage_ms("service.wire.result_encode"))
    row("service.wire.result_decode", stage_ms("service.wire.result_decode"))
    table["unattributed"] = wire_mean - attributed
    metrics["budget.unattributed_frac"] = 1.0 - attributed / wire_mean
    return metrics, table


# ----------------------------------------------------------------------
class ProbeResults:
    """Layer metrics, the time window each was measured in (for the
    calibrator) and the probes that could not run."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Optional[float]] = {}
        self.missing: Dict[str, str] = {}
        self._windows: Dict[str, Tuple[float, float]] = {}

    def record(self, values: Dict[str, Optional[float]],
               window: Tuple[float, float]) -> None:
        self.metrics.update(values)
        self._windows.update(dict.fromkeys(values, window))

    def guard(self, names: Sequence[str],
              fn: Callable[[], Dict[str, float]]) -> None:
        """A probe boundary: a layer that is gone or has changed shape
        reports null under ``layers_missing`` and the run goes on."""
        t0 = time.perf_counter()
        try:
            self.record(fn(), (t0, time.perf_counter()))
        except Exception as exc:
            traceback.print_exc()
            for name in names:
                self.metrics[name] = None
                self.missing[name] = f"{type(exc).__name__}: {exc}"

    def at_reference_speed(self, cal: Calibrator,
                           units: Dict[str, str]) -> None:
        """Rescale every time and rate to reference machine speed."""
        for name, window in self._windows.items():
            value = self.metrics[name]
            if value is not None:
                self.metrics[name] = at_reference_speed(
                    value, units[name], cal.speed(*window))


def _window(fn: Callable[[], Any]) -> Tuple[Any, Tuple[float, float]]:
    t0 = time.perf_counter()
    out = fn()
    return out, (t0, time.perf_counter())


def traced_pass(workload: Workload, seconds: float, out_dir: Path,
                units: Dict[str, str]) -> Dict[str, Any]:
    """``units`` maps every per-layer metric name to its unit."""
    probes = ProbeResults()
    guard = probes.guard
    log = SpanLog(workload.name)
    name, seed, scale = workload.name, workload.seed, workload.scale
    with Calibrator() as cal:
        workload.compute_expected()
        db = Database()
        workload.populate(db)
        guard(("stats.analyze_ms",), lambda: {
            "stats.analyze_ms": _ms(timed(db.update_statistics)[0])})
        # The replay stands in for a server that holds the data and
        # little else: keep this process's oracle and schedules out of
        # the cyclic collector's scans, or every in-process stage reads
        # ~3% slow.
        gc.collect()
        gc.freeze()

        with ServerProc(name, seed, scale) as server, \
                ServerProc(name, seed, scale, trace=True) as traced_server, \
                server.client() as client:
            guard(("service.rtt_ping_us", "service.rtt_select1_ms",
                   "service.scheduler.dispatch_us"),
                  lambda: probe_service(client))
            budget, budget_window = _window(lambda: budget_phase(
                workload, db, client, log, seconds * BUDGET_SHARE))
            (sched, off, on), window = _window(lambda: round_phase(
                server, traced_server, workload, client,
                seconds * ROUND_SHARE))
            probes.record(sched, window)
            (lock, lock_round), window = _window(lambda: lock_phase(
                server, workload, client, seconds * LOCK_SHARE))
            probes.record(lock, window)
        layer_metrics, budget_ms = budget_table(
            log, budget, probes.metrics["service.rtt_ping_us"],
            probes.metrics["service.scheduler.dispatch_us"])
        probes.record(layer_metrics, budget_window)

        # -- layer probes on the workload's points -------------------------
        pts = workload.points()[:PROBE_POINTS]
        eps = workload.probe_eps()
        guard(("core.index_probes", "core.candidates",
               "core.distance_computations", "core.groups_merged",
               "core.eliminated", "core.candidates_per_probe",
               "engine.rows_spooled"), lambda: probe_counts(db, workload))
        guard(("index.grid.build_ms", "index.grid.probe_us"),
              lambda: probe_index_grid(pts, eps))
        guard(("index.rtree.build_ms", "index.rtree.probe_us"),
              lambda: probe_index_rtree(pts, eps))
        guard(("kernels.pairwise_within_us",
               "kernels.batch_eps_neighbors_ms"),
              lambda: probe_kernels(pts, eps))
        guard(("dsu.union_us",), lambda: probe_dsu(pts, eps))
        guard(("streaming.insert_us_per_row", "streaming.snapshot_ms",
               "streaming.index_probes", "streaming.candidates"),
              lambda: probe_streaming(pts, eps))
        guard(("core.parallel.serial_ms", "core.parallel.pool2_ms"),
              lambda: probe_parallel(pts, eps))
        guard(("sql.parser.parse_insert_ms", "engine.insert_ms",
               "engine.insert_rows_per_s", "streaming.view_overhead_ms"),
              lambda: probe_insert(workload))

    # -- the calibrator has stopped: its samples are in -------------------
    probes.at_reference_speed(cal, units)

    def p50_at_reference(rounds: List[RoundResult]) -> float:
        return statistics.median(
            r.metrics["p50_ms"] / cal.speed(*r.window) for r in rounds)

    probes.metrics["obs.trace_on_ratio"] = (
        p50_at_reference(on) / p50_at_reference(off))
    budget_speed = cal.speed(*budget_window)
    log.write(out_dir / f"trace_{workload.name}.jsonl")
    wire_rounds = off + on + [lock_round]
    return {
        "metrics": probes.metrics, "layers_missing": probes.missing,
        "attempted": budget["ops"] + sum(r.attempted for r in wire_rounds),
        "failed": budget["failed"] + sum(r.failed for r in wire_rounds),
        "budget_ms": {k: v / budget_speed for k, v in budget_ms.items()},
        "budget_ops": budget["ops"], "budget_speed": budget_speed,
        "spans": len(log.spans),
    }
