"""The five wire-level workloads of ``bench_e2e``.

A workload owns everything that depends on the seed: the rows loaded
into the server, the statement schedule each client lane walks, and the
expected answer of every statement.  The server process and the load
generator both build the workload from ``(name, seed, scale)`` and so
see identical inputs without shipping data between processes.

Each class docstring's first paragraph is the workload's ``why`` — the
layer it loads and the layer it bypasses (README.md has the full table).
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.api import sgb_any
from repro.engine.database import Database, QueryResult, StatementResult
from repro.service import wire
from repro.workloads import queries as Q
from repro.workloads.checkins import brightkite, gowalla
from repro.workloads.tpch import TPCHGenerator

Point = Tuple[float, ...]

#: ROADMAP hypothesis (a)'s victim: cheap on its own, queued behind the
#: statement lock when an SGB SELECT is running.
CHEAP_CHECKIN_SQL = (
    "SELECT user_id, count(*) FROM checkins "
    "GROUP BY user_id ORDER BY 2 DESC LIMIT 10"
)

#: Open-loop rate of the cheap lane.  Below the ~20/s the seed commit
#: sustains beside the heavy lane; 10/s against a 5000-row heavy query
#: built an unbounded backlog in the prototype, so do not raise it.
CHEAP_RATE_OPS_S = 8.0


class Op(NamedTuple):
    """One wire request: ``kind`` is the client call (``query`` /
    ``execute`` / ``stream``), ``arg`` its SQL text or view name, ``cls``
    the latency/throughput class it counts under, ``key`` the entry of
    :attr:`Workload.expected` its response must match."""

    kind: str
    arg: str
    cls: str
    key: str


class Lane(NamedTuple):
    """One client connection.  ``rate`` None is a closed loop (next
    request after the reply); a number is an open loop at that many
    ops/s, timed from each op's due time.  ``ops(round)`` is the
    schedule: a ``cyclic`` one repeats until the round's time is up, a
    finite one is the round and runs to its end.  ``seed`` places each
    open-loop op at a random point of its own interval: strictly
    periodic arrivals alias with the other lane's statement cycle (125 ms
    against ~100 ms visits four phases of it), and the median then
    depends on which four."""

    name: str
    rate: Optional[float]
    ops: Callable[[int], Sequence[Op]]
    cyclic: bool
    seed: int = 0


def seeded_checkins(preset: Callable[[int], Any], n: int, seed: int) -> Any:
    """A check-in dataset for one run: the preset's own city map and
    densities, with the run's seed choosing row order, a rigid
    translation and the user ids.

    What an SGB query costs depends on the density structure (how many
    cities overlap, how heavy the head is): with that drawn afresh per
    seed, the same code read 95-130 ms across ten seeds and no bound
    under 25% held.  Holding the structure and reseeding everything the
    answer is sensitive to (order decides SGB-All cliques and JOIN-ANY
    arbitration, the translation moves every coordinate and grid cell)
    keeps runs with different seeds comparable.
    """
    data = preset(n)
    rng = random.Random(seed)
    dlat, dlon = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    users = list(range(data.n_users))
    rng.shuffle(users)
    rows = [(users[u], lat + dlat, lon + dlon) for u, lat, lon in data.rows]
    rng.shuffle(rows)
    data.rows = rows
    return data


def rows_digest(rows: Sequence[Sequence[Any]]) -> str:
    """Order-insensitive digest of result rows, identical for an
    in-process result and its wire round trip (both go through the wire
    value encoding, so tuples/lists/dates compare by value)."""
    lines = sorted(
        json.dumps(wire.encode_value(list(row)), sort_keys=True)
        for row in rows
    )
    h = hashlib.blake2b(digest_size=12)
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return f"{len(lines)}:{h.hexdigest()}"


def response_value(kind: str, response: Any) -> Any:
    """The part of a response that :attr:`Workload.expected` pins."""
    if kind == "stream":
        return response["n_points"]
    if isinstance(response, QueryResult):
        return rows_digest(response.rows)
    if isinstance(response, StatementResult):
        return response.status
    return repr(response)


def canonical_partition(labels: Sequence[int]) -> List[int]:
    """Relabel groups by first appearance so two labelings of the same
    partition compare equal."""
    seen: Dict[int, int] = {}
    return [seen.setdefault(label, len(seen)) for label in labels]


class Workload:
    """Base: subclasses set the class sets and build data + schedules."""

    name = ""
    #: Classes whose latency is the workload's ``p50_ms`` / ``p90_ms``.
    latency_cls: frozenset = frozenset()
    #: Classes whose completions are the workload's ``throughput_ops_s``.
    throughput_cls: frozenset = frozenset()

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        #: key -> expected :func:`response_value`; filled by
        #: :meth:`compute_expected` (and by schedule construction for
        #: the answers the schedule itself fixes).
        self.expected: Dict[str, Any] = {}

    @classmethod
    def why(cls) -> str:
        return " ".join((cls.__doc__ or "").split("\n\n")[0].split())

    def _n(self, rows: int) -> int:
        return max(40, int(rows * self.scale))

    # -- data ------------------------------------------------------------
    def populate(self, db: Database) -> None:
        raise NotImplementedError

    # -- schedules -------------------------------------------------------
    def lanes(self, slice_s: float) -> List[Lane]:
        """The client lanes of a round that lasts ``slice_s`` seconds."""
        raise NotImplementedError

    def read_ops(self) -> List[Op]:
        """The distinct SELECTs, in cycle order (oracle + staged replay)."""
        raise NotImplementedError

    def replay_ops(self, round_index: int) -> List[Op]:
        """Ops the traced pass replays stage by stage (one cycle)."""
        return self.read_ops()

    def cheap_op(self) -> Op:
        """A cheap SELECT on this workload's tables (lock probe)."""
        raise NotImplementedError

    def points(self) -> List[Point]:
        """The point set the index/kernel/streaming probes run on."""
        raise NotImplementedError

    def probe_eps(self) -> float:
        return 0.1

    # -- oracle ----------------------------------------------------------
    def oracle_db(self) -> Database:
        """Identically seeded data behind the slow, obviously-right
        all-pairs strategies."""
        db = Database(sgb_any_strategy="all-pairs",
                      sgb_all_strategy="all-pairs")
        self.populate(db)
        return db

    def compute_expected(self) -> None:
        db = self.oracle_db()
        for op in self.read_ops() + [self.cheap_op()]:
            self.expected[op.key] = rows_digest(db.query(op.arg).rows)

    def final_check(self, client: Any, progress: Dict[int, int]) -> int:
        """Post-run checks beyond per-response ones; returns failures."""
        return 0


# ----------------------------------------------------------------------
# check-in workloads
# ----------------------------------------------------------------------
class _CheckinWorkload(Workload):
    latency_cls = frozenset({"sgb"})
    throughput_cls = frozenset({"sgb"})

    def _dataset(self):
        raise NotImplementedError

    def populate(self, db: Database) -> None:
        self._dataset().populate(db)

    def points(self) -> List[Point]:
        return self._dataset().points()

    def cheap_op(self) -> Op:
        return Op("query", CHEAP_CHECKIN_SQL, "cheap", "cheap")

    def lanes(self, slice_s: float) -> List[Lane]:
        ops = self.read_ops()
        return [Lane("A", None, lambda _round: ops, True)]


def _any_cycle(cls: str) -> List[Op]:
    return [
        Op("query", Q.checkin_sgb_any(eps), cls, f"any_{eps}")
        for eps in (0.05, 0.1, 0.2)
    ]


class CheckinAny(_CheckinWorkload):
    """SGB-Any over 5000 skewed check-ins, eps cycling 0.05/0.1/0.2:
    core.sgb_any + index + kernels are ~80% of the work, parse+plan <1%;
    SGB-Any and kernel changes show here, SGB-All ones must not."""

    name = "checkin_any"

    def _dataset(self):
        return seeded_checkins(gowalla, self._n(5000), self.seed)

    def read_ops(self) -> List[Op]:
        return _any_cycle("sgb")


class CheckinAll(_CheckinWorkload):
    """SGB-All (clique) over 1500 check-ins cycling the three ON-OVERLAP
    clauses: repro.core.sgb_all + repro.geometry, code disjoint from
    checkin_any, so an SGB-Any change predicts no movement here."""

    name = "checkin_all"

    def _dataset(self):
        return seeded_checkins(brightkite, self._n(1500), self.seed)

    def read_ops(self) -> List[Op]:
        return [
            Op("query", Q.checkin_sgb_all(0.1, on_overlap=clause), "sgb",
               f"all_{clause}")
            for clause in ("join-any", "eliminate", "form-new-group")
        ]


# ----------------------------------------------------------------------
# TPC-H Table 2
# ----------------------------------------------------------------------
class TpchTable2(Workload):
    """The paper's Table 2 mix (Q1, GB1-3, SGB1-6) at SF 1: joins,
    sub-aggregates, parser and planner dominate and SGB sees 10-150
    points; bypasses the SGB kernels, loads repro.sql and repro.stats."""

    name = "tpch_table2"
    latency_cls = frozenset({"tpch"})
    throughput_cls = frozenset({"tpch"})

    def populate(self, db: Database) -> None:
        TPCHGenerator(scale_factor=1.0 * self.scale,
                      seed=self.seed).populate(db)

    def read_ops(self) -> List[Op]:
        # Parameterised exactly as benchmarks/bench_table2.py.
        catalog = [
            ("q1", Q.q1()),
            ("gb1", Q.gb1(quantity_threshold=60)),
            ("gb2", Q.gb2()),
            ("gb3", Q.gb3()),
            ("sgb1", Q.sgb1(eps=50000)),
            ("sgb2", Q.sgb2(eps=50000)),
            ("sgb3", Q.sgb3(eps=5000, on_overlap="eliminate")),
            ("sgb4", Q.sgb4(eps=5000)),
            ("sgb5", Q.sgb5(eps=2000, on_overlap="form-new-group")),
            ("sgb6", Q.sgb6(eps=2000)),
        ]
        return [Op("query", sql, "tpch", key) for key, sql in catalog]

    def lanes(self, slice_s: float) -> List[Lane]:
        ops = self.read_ops()
        return [Lane("A", None, lambda _round: ops, True)]

    def cheap_op(self) -> Op:
        return Op(
            "query",
            "SELECT c_nationkey, count(*) FROM customer "
            "GROUP BY c_nationkey ORDER BY 2 DESC, 1 LIMIT 10",
            "cheap", "cheap",
        )

    def points(self) -> List[Point]:
        db = Database()
        self.populate(db)
        best: List[Point] = []
        for op in self.read_ops():
            pts = sgb_points(db, op.arg)
            if pts is not None and len(pts) > len(best):
                best = pts
        return best

    def probe_eps(self) -> float:
        return 5000.0


# ----------------------------------------------------------------------
# lock mix
# ----------------------------------------------------------------------
class LockMix(_CheckinWorkload):
    """A closed-loop SGB-Any client beside an open-loop 8 ops/s cheap
    GROUP BY that waits on the statement lock through each heavy SELECT:
    a snapshot-read change shows here and must not slow the heavy lane."""

    name = "lock_mix"
    latency_cls = frozenset({"cheap"})
    throughput_cls = frozenset({"heavy"})

    def _dataset(self):
        return seeded_checkins(gowalla, self._n(2000), self.seed)

    def read_ops(self) -> List[Op]:
        return _any_cycle("heavy")

    def lanes(self, slice_s: float) -> List[Lane]:
        heavy = self.read_ops()
        cheap = [self.cheap_op()]
        # Open loop for B: a fix that unblocks it must not also multiply
        # the load it offers (a closed-loop B would then take CPU from A
        # and fail the throughput guard).
        return [
            Lane("A", None, lambda _round: heavy, True),
            Lane("B", CHEAP_RATE_OPS_S, lambda _round: cheap, True, self.seed),
        ]


# ----------------------------------------------------------------------
# ingest stream
# ----------------------------------------------------------------------
class IngestStream(Workload):
    """40-row INSERTs into a table with a live SGB-Any stream view, a
    snapshot and a count(*) after every 8th: a change that speeds reads
    by making appends, listeners or stats refresh dearer shows here."""

    name = "ingest_stream"
    latency_cls = frozenset({"insert"})
    throughput_cls = frozenset({"insert", "snapshot", "count"})

    ROWS_PER_INSERT = 40
    #: A round is a fixed schedule, not a time slice: this many inserts
    #: per second of round (what the seed commit completes on this box),
    #: so table sizes, and with them the server's peak memory, are fixed
    #: by the schedule and a faster build finishes sooner instead of
    #: growing bigger tables.
    NOMINAL_INSERTS_PER_S = 110
    #: Rows generated per round table bound the schedule's length.
    INSERTS_PER_TABLE = 600
    READ_EVERY = 8
    #: One table per timed round plus the traced pass's own rounds.
    TABLES = 8
    VIEW_EPS = 0.1

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self._inserts = max(16, int(self.INSERTS_PER_TABLE * scale))
        self._rows_cache: Dict[int, List[Tuple[int, float, float]]] = {}

    def populate(self, db: Database) -> None:
        for k in range(self.TABLES):
            db.create_table(
                f"checkins_r{k}",
                [("user_id", "int"), ("latitude", "float"),
                 ("longitude", "float")],
            )
            db.create_stream_view(
                f"live_r{k}", f"checkins_r{k}", ["latitude", "longitude"],
                "any", eps=self.VIEW_EPS, batch_size=32,
            )

    def rows(self, round_index: int) -> List[Tuple[int, float, float]]:
        """The rows of round ``round_index``'s table, in insert order."""
        k = round_index % self.TABLES
        if k not in self._rows_cache:
            n = self._inserts * self.ROWS_PER_INSERT
            self._rows_cache[k] = seeded_checkins(
                gowalla, n, self.seed * 131 + k).rows
        return self._rows_cache[k]

    def schedule(self, round_index: int,
                 inserts: Optional[int] = None) -> List[Op]:
        """Round ``round_index``'s ops: ``inserts`` INSERTs (default: the
        whole table) and the reads between them."""
        inserts = min(inserts or self._inserts, self._inserts)
        k = round_index % self.TABLES
        rows = self.rows(k)
        table, view = f"checkins_r{k}", f"live_r{k}"
        ops: List[Op] = []
        positive = 0
        per = self.ROWS_PER_INSERT
        status = f"INSERT {per}"
        for i in range(inserts):
            chunk = rows[i * per:(i + 1) * per]
            positive += sum(1 for _, lat, _ in chunk if lat > 0)
            values = ", ".join(
                f"({u}, {lat!r}, {lon!r})" for u, lat, lon in chunk
            )
            key = f"r{k}:insert"
            self.expected[key] = status
            ops.append(Op("execute", f"INSERT INTO {table} VALUES {values}",
                          "insert", key))
            if (i + 1) % self.READ_EVERY == 0:
                key = f"r{k}:snapshot:{i}"
                self.expected[key] = (i + 1) * per
                ops.append(Op("stream", view, "snapshot", key))
                key = f"r{k}:count:{i}"
                self.expected[key] = rows_digest([(positive,)])
                ops.append(Op(
                    "query",
                    f"SELECT count(*) FROM {table} WHERE latitude > 0",
                    "count", key,
                ))
        return ops

    def lanes(self, slice_s: float) -> List[Lane]:
        inserts = max(self.READ_EVERY,
                      int(slice_s * self.NOMINAL_INSERTS_PER_S))
        return [Lane("A", None, lambda k: self.schedule(k, inserts), False)]

    def read_ops(self) -> List[Op]:
        return []

    def replay_ops(self, round_index: int) -> List[Op]:
        return self.schedule(round_index)

    def cheap_op(self) -> Op:
        # An empty spare table: the answer does not depend on how far
        # the ingest lane has got.
        spare = f"checkins_r{self.TABLES - 1}"
        key = "cheap"
        self.expected[key] = rows_digest([(0,)])
        return Op("query",
                  f"SELECT count(*) FROM {spare} WHERE latitude > 0",
                  "cheap", key)

    def compute_expected(self) -> None:
        self.cheap_op()  # schedules fill the rest as they are built

    def points(self) -> List[Point]:
        return [(lat, lon) for _, lat, lon in self.rows(0)]

    def probe_eps(self) -> float:
        return self.VIEW_EPS

    def final_check(self, client: Any, progress: Dict[int, int]) -> int:
        """Every round table's final snapshot must hold the rows actually
        inserted, and the last round's must be partition-equal to the
        all-pairs batch operator over them (on every table that oracle
        would cost more than the timed run)."""
        failures = 0
        last = max(progress) if progress else -1
        for k, n_inserts in sorted(progress.items()):
            n = n_inserts * self.ROWS_PER_INSERT
            snap = client.stream_snapshot(f"live_r{k % self.TABLES}")
            if snap["n_points"] != n:
                failures += 1
            elif k == last and n:
                pts = [(lat, lon) for _, lat, lon in self.rows(k)[:n]]
                want = sgb_any(pts, self.VIEW_EPS, strategy="all-pairs")
                if (canonical_partition(snap["labels"])
                        != canonical_partition(want.labels)):
                    failures += 1
        return failures


# ----------------------------------------------------------------------
def sgb_points(db: Database, sql: str) -> Optional[List[Point]]:
    """The grouping-attribute points an SGB statement feeds its operator,
    or None for a statement without a similarity clause.

    Obtained through SQL alone (select the grouping attributes from the
    statement's own FROM/WHERE) so it needs no executor internals: in
    every catalog query the first FROM and the last GROUP BY are the
    top-level ones.
    """
    if "DISTANCE-TO-" not in sql:
        return None
    _head, rest = sql.split("FROM", 1)
    body, clause = rest.rsplit("GROUP BY", 1)
    keys = clause.split("DISTANCE-TO-", 1)[0]
    rows = db.query(f"SELECT {keys} FROM {body}").rows
    return [
        tuple(float(v) for v in row) for row in rows
        if all(v is not None for v in row)
    ]


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (CheckinAny, CheckinAll, TpchTable2, LockMix, IngestStream)
}


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return cls(seed, scale)
