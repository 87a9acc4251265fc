"""SGB008: blocking calls must not be reachable from ``async def``.

The asyncio service runs every coroutine on one event loop thread; a
single ``time.sleep`` or unbounded ``queue.Queue.put`` inside a handler
stalls every in-flight session, defeating the scheduler's admission
control.  This rule BFS-walks the call graph from each ``async def``
body and flags the first blocking leaf reachable without an executor
hop.  ``asyncio.to_thread(fn)`` / ``loop.run_in_executor(None, fn)``
pass ``fn`` without calling it, so no call edge exists through them —
the hop breaks the chain structurally, no special casing needed.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.callgraph import CallSite, format_chain
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Fully-qualified callables that block the calling thread.  Matched
#: against resolved callee names (suffix match on the dotted tail so
#: ``queue.Queue.put`` also matches a subclassed queue type).
BLOCKING_LEAVES = frozenset({
    "time.sleep",
    "queue.Queue.get",
    "queue.Queue.put",
    "queue.Queue.join",
    "queue.SimpleQueue.get",
    "queue.SimpleQueue.put",
    "socket.create_connection",
    "socket.socket.recv",
    "socket.socket.send",
    "socket.socket.sendall",
    "socket.socket.accept",
    "socket.socket.connect",
    "subprocess.run",
    "subprocess.check_output",
    "subprocess.check_call",
    "subprocess.call",
    "threading.Thread.join",
    "threading.Event.wait",
    "threading.Condition.wait",
    "concurrent.futures.Future.result",
    "urllib.request.urlopen",
})

#: Bare names that block regardless of resolution (builtins).
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Repro entry points that hold the statement lock and run a full query:
#: calling them from the event loop blocks it for the query's duration.
BLOCKING_REPRO_METHODS = frozenset({
    "repro.engine.database.Database.execute",
    "repro.engine.database.Database.query",
    "repro.engine.database.Database.insert",
    "repro.engine.database.Database.analyze",
    "repro.engine.database.Database.update_statistics",
})

#: Unresolved-receiver methods (``?get``) are NOT matched: an unknown
#: ``x.get(...)`` is far more often a dict than a queue, and guessing
#: would bury the report in noise.  Typed receivers resolve properly.


def _is_blocking(callee: str) -> bool:
    if callee in BLOCKING_REPRO_METHODS:
        return True
    if callee in BLOCKING_BUILTINS:
        return True
    if callee in BLOCKING_LEAVES:
        return True
    # Full-leaf suffix match so an aliased resolution like
    # ``mypkg.queue.Queue.put`` still counts, while ``asyncio.Queue.put``
    # (a coroutine, not blocking) does not.
    return any(callee.endswith("." + leaf) for leaf in BLOCKING_LEAVES)


@register
class BlockingInAsyncRule(Rule):
    """``async def`` bodies must not reach blocking calls synchronously.

    From every coroutine in the analyzed package, SGB008 walks resolved
    call-graph edges (depth <= 12) looking for known-blocking leaves:
    ``time.sleep``, synchronous ``queue.Queue.get/put/join``, socket and
    subprocess calls, ``Thread.join``, ``Event.wait``, the builtin
    ``open``, and the repro entry points ``Database.execute/query/...``
    that hold the statement lock for a full query.  The finding's
    message shows the offending call chain.

    Fix by hopping to a worker thread — ``await asyncio.to_thread(fn,
    ...)`` or ``loop.run_in_executor`` — which breaks the chain because
    the callable is passed, not called.  Calls whose receiver type
    cannot be resolved are not guessed at.
    """

    id = "SGB008"
    title = "blocking call reachable from async def"
    caught = (
        "PR 10: SGBService.stop ran QueryScheduler.shutdown, a blocking "
        "put on the bounded work queue, on the event loop; it now hops "
        "off-loop through asyncio.to_thread"
    )

    def check_project(self, project) -> Iterator[Finding]:
        graph = project.graph
        for qualname in sorted(graph.calls):
            sym = project.table.functions.get(qualname)
            if sym is None or not sym.is_async:
                continue
            chain = graph.reachable_path(
                qualname,
                lambda callee, site: _is_blocking(callee),
            )
            if chain is None:
                continue
            first: CallSite = chain[0]
            leaf = chain[-1].callee
            yield self.finding_at(
                first.path, first.node,
                f"async {sym.name}() reaches blocking "
                f"{leaf} without an executor hop "
                f"({format_chain(chain)}) — wrap the first sync step in "
                f"asyncio.to_thread(...)",
            )
