"""An interactive SQL shell for the engine (`python -m repro.engine.shell`).

A small psql-like REPL so the SGB dialect can be explored interactively:

* statements end with ``;`` and may span lines;
* meta-commands: ``\\d`` (list tables), ``\\d name`` (describe one),
  ``\\timing`` (toggle), ``\\e <sql>`` (EXPLAIN), ``\\load table path.csv``,
  ``\\tpch [sf]`` (load the TPC-H-like dataset), ``\\q`` (quit);
* ``\\connect [host] <port>`` points the shell at a running
  ``repro.service`` server — every later statement travels the wire
  through a :class:`~repro.service.client.ServiceClient` instead of the
  embedded database, and ``\\disconnect`` returns to it.

The core is :class:`Shell`, which processes one line at a time and returns
printable output — that keeps the REPL fully scriptable and testable.

Values render through :func:`repro.service.wire.render_value` — the same
formatter the service client CLI uses — so a result looks identical
whether it was computed in-process or fetched over the wire.
"""

from __future__ import annotations

import sys
import time
from typing import List, Optional

from repro.engine.database import Database, QueryResult, StatementResult
from repro.errors import ReproError
from repro.service.wire import render_value as _render

PROMPT = "sgb> "
CONTINUATION = "...> "


def format_table(result: QueryResult, max_rows: int = 50) -> str:
    """Render a query result as an aligned text table."""
    columns = result.columns
    rows = result.rows[:max_rows]
    rendered = [[_render(v) for v in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in rendered))
        if rendered else len(columns[i])
        for i in range(len(columns))
    ]
    out = [
        " | ".join(c.ljust(w) for c, w in zip(columns, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for r in rendered:
        out.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    footer = f"({len(result.rows)} row{'s' if len(result.rows) != 1 else ''})"
    if len(result.rows) > max_rows:
        footer += f", showing first {max_rows}"
    out.append(footer)
    return "\n".join(out)


class Shell:
    """Line-oriented shell state machine."""

    def __init__(self, db: Optional[Database] = None):
        self.db = db or Database()
        self.timing = False
        self._buffer: List[str] = []
        self.done = False
        #: Live :class:`~repro.service.client.ServiceClient` after
        #: ``\connect``; ``None`` means statements run on :attr:`db`.
        self.client = None
        self.remote: str = ""

    @property
    def prompt(self) -> str:
        return CONTINUATION if self._buffer else PROMPT

    def feed(self, line: str) -> str:
        """Process one input line; returns text to display (may be '')."""
        stripped = line.strip()
        if not self._buffer and stripped.startswith("\\"):
            return self._meta(stripped)
        if not stripped and not self._buffer:
            return ""
        self._buffer.append(line)
        if not stripped.endswith(";"):
            return ""
        sql = "\n".join(self._buffer)
        self._buffer = []
        return self._run_sql(sql)

    # ------------------------------------------------------------------
    def _run_sql(self, sql: str) -> str:
        start = time.perf_counter()
        try:
            if self.client is not None:
                result = self.client.execute(sql)
            else:
                result = self.db.execute(sql)
        except ReproError as exc:
            return f"ERROR: {exc}"
        elapsed = time.perf_counter() - start
        if isinstance(result, QueryResult):
            if result.columns == ["QUERY PLAN"]:
                # EXPLAIN [ANALYZE] output: print the plan lines verbatim
                # (boxing them in a one-column table would mangle indent).
                out = "\n".join(row[0] for row in result.rows)
            else:
                out = format_table(result)
        elif isinstance(result, StatementResult):
            out = result.status
        else:  # pragma: no cover - defensive
            out = str(result)
        if self.timing:
            out += f"\nTime: {elapsed * 1000:.1f} ms"
        return out

    def _meta(self, command: str) -> str:
        parts = command.split()
        head = parts[0]
        if head in ("\\q", "\\quit"):
            self.done = True
            return ""
        if head == "\\timing":
            self.timing = not self.timing
            return f"Timing is {'on' if self.timing else 'off'}."
        if head == "\\d":
            if len(parts) == 1:
                names = self.db.catalog.table_names()
                if not names:
                    return "No tables."
                return "\n".join(
                    f"{name} ({len(self.db.table(name))} rows)"
                    for name in names
                )
            try:
                table = self.db.table(parts[1])
            except ReproError as exc:
                return f"ERROR: {exc}"
            return "\n".join(
                f"{col.name}  {col.type}" for col in table.schema
            )
        if head == "\\e":
            sql = command[len("\\e"):].strip()
            try:
                if self.client is not None:
                    return self.client.explain(sql)
                return self.db.explain(sql)
            except ReproError as exc:
                return f"ERROR: {exc}"
        if head == "\\connect":
            return self._connect(parts[1:])
        if head == "\\disconnect":
            if self.client is None:
                return "Not connected."
            self.client.close()
            self.client = None
            addr, self.remote = self.remote, ""
            return f"Disconnected from {addr}; statements run locally."
        if head == "\\load":
            if len(parts) != 3:
                return "usage: \\load <table> <path.csv>"
            from repro.engine.io import load_csv

            try:
                table = load_csv(self.db, parts[1], parts[2])
            except (ReproError, OSError) as exc:
                return f"ERROR: {exc}"
            return f"Loaded {len(table)} rows into {table.name}."
        if head == "\\tpch":
            from repro.workloads.tpch import TPCHGenerator

            sf = float(parts[1]) if len(parts) > 1 else 1.0
            try:
                TPCHGenerator(sf).populate(self.db)
            except ReproError as exc:
                return f"ERROR: {exc}"
            return f"TPC-H-like data loaded at SF={sf:g}."
        if head == "\\analyze":
            if self.client is not None:
                return self._run_sql(
                    "ANALYZE" + (f" {parts[1]}" if len(parts) > 1 else "")
                    + ";"
                )
            try:
                self.db.update_statistics(parts[1] if len(parts) > 1 else None)
            except ReproError as exc:
                return f"ERROR: {exc}"
            return "ANALYZE"
        if head == "\\stats":
            return self._stats(parts[1:])
        if head == "\\stream":
            return self._stream(parts[1:])
        if head == "\\trace":
            return self._trace(parts[1:])
        if head == "\\querylog":
            return self._querylog(parts[1:])
        if head == "\\metrics":
            if self.client is not None:
                return self.client.metrics().rstrip("\n")
            return self.db.metrics_snapshot().rstrip("\n")
        if head == "\\help":
            return (
                "\\d [table]   list tables / describe one\n"
                "\\e <sql>     explain a SELECT\n"
                "\\timing      toggle per-statement timing\n"
                "\\load t f    load CSV file f into new table t\n"
                "\\analyze [t] collect planner statistics (all tables / t)\n"
                "\\stats [t]   show collected table statistics\n"
                "\\tpch [sf]   load the TPC-H-like dataset\n"
                "\\stream ...  incremental SGB views "
                "(\\stream for usage)\n"
                "\\trace ...   span tracing: on | off | dump <path>\n"
                "\\querylog .. query log: on [path] | off | drift "
                "(\\querylog for recent)\n"
                "\\metrics     Prometheus text snapshot of engine metrics\n"
                "\\connect [host] <port>  route statements to a "
                "repro.service server\n"
                "\\disconnect  return to the embedded database\n"
                "\\q           quit"
            )
        return f"unknown meta-command {head!r} (try \\help)"

    def _stats(self, args: List[str]) -> str:
        """Show the planner statistics collected by ANALYZE."""
        if self.client is not None:
            return "\\stats inspects the embedded database; \\disconnect first."
        if args:
            try:
                tables = [self.db.table(args[0])]
            except ReproError as exc:
                return f"ERROR: {exc}"
        else:
            tables = [self.db.table(n) for n in self.db.catalog.table_names()]
        lines: List[str] = []
        for table in tables:
            if table.stats is None:
                lines.append(
                    f"{table.name}: no statistics (run ANALYZE "
                    f"or \\analyze)"
                )
            else:
                lines.extend(table.stats.summary_lines())
        return "\n".join(lines) if lines else "No tables."

    def _connect(self, args: List[str]) -> str:
        """Attach the shell to a running repro.service server."""
        from repro.service.client import ServiceClient

        usage = "usage: \\connect [host] <port>"
        if len(args) == 1:
            host, port_text = "127.0.0.1", args[0]
        elif len(args) == 2:
            host, port_text = args
        else:
            return usage
        try:
            port = int(port_text)
        except ValueError:
            return usage
        try:
            client = ServiceClient(host, port)
        except (ReproError, OSError) as exc:
            return f"ERROR: could not connect to {host}:{port}: {exc}"
        if self.client is not None:
            self.client.close()
        self.client = client
        self.remote = f"{host}:{port}"
        return (
            f"Connected to {self.remote} "
            f"(session {client.session_id}); statements now run remotely."
        )

    def _trace(self, args: List[str]) -> str:
        """Toggle span tracing or dump the buffered trace to a file."""
        usage = (
            "usage: \\trace              show tracing state\n"
            "       \\trace on|off       enable / disable span tracing\n"
            "       \\trace dump <path>  write buffered spans "
            "(.jsonl or Chrome trace JSON)"
        )
        if not args:
            state = "on" if self.db.trace_enabled else "off"
            tracer = self.db.tracer
            buffered = len(tracer) if tracer is not None else 0
            return f"Tracing is {state} ({buffered} spans buffered)."
        if args[0] == "on":
            self.db.set_trace(True)
            return "Tracing is on."
        if args[0] == "off":
            self.db.set_trace(False)
            return "Tracing is off."
        if args[0] == "dump":
            if len(args) != 2:
                return usage
            try:
                n = self.db.export_trace(args[1])
            except (ReproError, OSError) as exc:
                return f"ERROR: {exc}"
            return f"Wrote {n} span(s) to {args[1]}."
        return usage

    def _querylog(self, args: List[str]) -> str:
        """Control the query log and show recent / drifted queries."""
        usage = (
            "usage: \\querylog             show recent queries\n"
            "       \\querylog on [path]  enable (optionally append "
            "JSONL to path)\n"
            "       \\querylog off        stop recording\n"
            "       \\querylog drift      show drift-flagged queries"
        )
        if args:
            if args[0] == "on":
                if len(args) > 2:
                    return usage
                path = args[1] if len(args) == 2 else None
                try:
                    self.db.set_query_log(True, path=path)
                except OSError as exc:
                    return f"ERROR: {exc}"
                where = f", logging to {path}" if path else ""
                return f"Query log is on{where}."
            if args[0] == "off":
                self.db.set_query_log(False)
                return "Query log is off."
            if args[0] != "drift":
                return usage
        log = self.db.query_log
        if log is None:
            return "Query log is off (never enabled).\n" + usage
        records = log.drift_records() if args else log.recent(10)
        if not records:
            kind = "drift-flagged" if args else "recorded"
            return f"No {kind} queries."
        lines = []
        for rec in records:
            flag = " DRIFT" if rec.drift else ""
            ratio = f"x{rec.ratio:.2f}" if rec.ratio is not None else "-"
            lines.append(
                f"{rec.fingerprint}  est={rec.est_rows} "
                f"actual={rec.actual_rows} {ratio} "
                f"{rec.latency_ms:.1f} ms "
                f"[{rec.strategy or '-'}]{flag}  {rec.sql[:60]}"
            )
        return "\n".join(lines)

    def _stream(self, args: List[str]) -> str:
        """Manage incremental SGB views: create, inspect, drop, list."""
        usage = (
            "usage: \\stream                         list views\n"
            "       \\stream <name>                  snapshot one view\n"
            "       \\stream create <name> <table> "
            "<col,col> <any|all> <eps>\n"
            "       \\stream drop <name>"
        )
        if not args:
            names = self.db.stream_view_names()
            if not names:
                return "No stream views.\n" + usage
            lines = []
            for name in names:
                v = self.db.stream_view(name)
                lines.append(
                    f"{v.name}: {v.mode} over {v.table.name}"
                    f"({','.join(v.columns)}) eps={v.eps:g} "
                    f"points={v.n_points}"
                )
            return "\n".join(lines)
        if args[0] == "create":
            if len(args) != 6:
                return usage
            _, name, table, cols, mode, eps = args
            try:
                view = self.db.create_stream_view(
                    name, table, cols.split(","), mode, eps=float(eps)
                )
            except (ReproError, ValueError) as exc:
                return f"ERROR: {exc}"
            return (
                f"Stream view {view.name!r} tracking {view.table.name}: "
                f"{view.n_points} rows, {view.n_groups()} groups."
            )
        if args[0] == "drop":
            if len(args) != 2:
                return usage
            try:
                self.db.drop_stream_view(args[1])
            except ReproError as exc:
                return f"ERROR: {exc}"
            return f"Dropped stream view {args[1]!r}."
        if len(args) == 1:
            try:
                view = self.db.stream_view(args[0])
                snap = view.snapshot()  # flushes: a refused row surfaces here
            except ReproError as exc:
                return f"ERROR: {exc}"
            sizes = snap.group_sizes()
            shown = ", ".join(str(s) for s in sizes[:10])
            if len(sizes) > 10:
                shown += ", ..."
            stats = view.stats
            return (
                f"{view.name}: {snap.n_points} points, "
                f"{snap.n_groups} groups, "
                f"{snap.n_eliminated} eliminated\n"
                f"group sizes: [{shown}]\n"
                f"batches={view.batcher.n_batches} "
                f"probes={stats.index_probes} "
                f"merges={stats.groups_merged} "
                f"ingest={stats.wall_time_s * 1000:.1f} ms"
            )
        return usage


def main(argv=None) -> int:  # pragma: no cover - interactive loop
    shell = Shell()
    print("repro SQL shell — similarity GROUP BY dialect (\\help for help)")
    try:
        while not shell.done:
            try:
                line = input(shell.prompt)
            except EOFError:
                break
            output = shell.feed(line)
            if output:
                print(output)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
