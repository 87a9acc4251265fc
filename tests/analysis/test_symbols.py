"""Symbol-table, call-graph, and flow units over a mini-package.

The mini-package is three in-memory modules (``repro.mini.core``,
``repro.mini.engine``, ``repro.mini.app``) exercising the resolution
paths the project rules depend on: imports, MRO dispatch, attribute
types inferred from constructor assignments, local-variable types, and
lock-held tracking.
"""

import pytest

from repro.analysis.context import FileContext
from repro.analysis.project import Project

CORE = '''\
import threading


class Token:
    def check(self):
        return None


class Base:
    def __init__(self):
        self._lock = threading.Lock()

    def ping(self):
        return "base"
'''

ENGINE = '''\
import queue

from repro.mini.core import Base, Token


class Engine(Base):
    def __init__(self):
        super().__init__()
        self._queue = queue.Queue()
        self._token = Token()

    def ping(self):
        return "engine"

    def pull(self):
        return self._queue.get()

    def verify(self):
        self._token.check()

    def count(self):
        with self._lock:
            return self._queue.qsize()
'''

APP = '''\
from repro.mini import engine


def run():
    e = engine.Engine()
    e.pull()
    return helper(e)


def helper(e: engine.Engine):
    e.verify()
    return e
'''


@pytest.fixture(scope="module")
def project():
    sources = {
        "src/repro/mini/core.py": CORE,
        "src/repro/mini/engine.py": ENGINE,
        "src/repro/mini/app.py": APP,
    }
    return Project([FileContext(p, s) for p, s in sources.items()])


class TestSymbolTable:
    def test_modules_indexed_by_dotted_name(self, project):
        assert {"repro.mini.core", "repro.mini.engine",
                "repro.mini.app"} <= set(project.table.modules)

    def test_resolve_through_imports(self, project):
        table = project.table
        assert table.resolve("repro.mini.engine", "Base") == \
            "repro.mini.core.Base"
        assert table.resolve("repro.mini.app", "engine.Engine") == \
            "repro.mini.engine.Engine"

    def test_stdlib_resolves_textually(self, project):
        assert project.table.resolve("repro.mini.engine",
                                     "queue.Queue") == "queue.Queue"

    def test_attr_types_from_constructor(self, project):
        engine = project.table.classes["repro.mini.engine.Engine"]
        assert engine.attr_types["_queue"] == "queue.Queue"
        assert engine.attr_types["_token"] == "Token"

    def test_lock_attrs_inherited_through_mro(self, project):
        table = project.table
        base = table.classes["repro.mini.core.Base"]
        engine = table.classes["repro.mini.engine.Engine"]
        assert base.lock_attrs == {"_lock"}
        mro_locks = set()
        for klass in table.mro(engine):
            mro_locks |= klass.lock_attrs
        assert "_lock" in mro_locks

    def test_mro_and_subclass_check(self, project):
        table = project.table
        engine = table.classes["repro.mini.engine.Engine"]
        assert [c.name for c in table.mro(engine)] == ["Engine", "Base"]
        assert table.is_subclass_of(engine, "Base")
        assert not table.is_subclass_of(engine, "Token")

    def test_method_dispatch_prefers_override(self, project):
        table = project.table
        engine = table.classes["repro.mini.engine.Engine"]
        ping = table.resolve_method(engine, "ping")
        assert ping is not None
        assert ping.qualname == "repro.mini.engine.Engine.ping"


class TestCallGraph:
    def test_constructor_call_maps_to_init(self, project):
        callees = project.graph.callees("repro.mini.app.run")
        assert "repro.mini.engine.Engine.__init__" in callees

    def test_local_var_method_dispatch(self, project):
        callees = project.graph.callees("repro.mini.app.run")
        assert "repro.mini.engine.Engine.pull" in callees

    def test_self_attr_dispatch_to_stdlib_type(self, project):
        callees = project.graph.callees("repro.mini.engine.Engine.pull")
        assert "queue.Queue.get" in callees

    def test_reachable_path_crosses_modules(self, project):
        chain = project.graph.reachable_path(
            "repro.mini.app.run",
            lambda callee, site: callee == "queue.Queue.get",
        )
        assert chain is not None
        assert chain[-1].callee == "queue.Queue.get"

    def test_reachable_path_through_helper(self, project):
        chain = project.graph.reachable_path(
            "repro.mini.app.run",
            lambda callee, site: callee.endswith("Token.check"),
        )
        assert chain is not None
        assert [s.callee for s in chain] == [
            "repro.mini.app.helper",
            "repro.mini.engine.Engine.verify",
            "repro.mini.core.Token.check",
        ]

    def test_unreachable_target_returns_none(self, project):
        chain = project.graph.reachable_path(
            "repro.mini.core.Token.check",
            lambda callee, site: callee == "queue.Queue.get",
        )
        assert chain is None


class TestFlow:
    def test_with_lock_marks_accesses_held(self, project):
        flows = {f.sym.name: f for f in project.flows_for_class(
            "repro.mini.engine.Engine")}
        count_accesses = [a for a in flows["count"].attr_accesses
                          if a.attr == "_queue"]
        assert count_accesses
        assert all("_lock" in a.held for a in count_accesses)

    def test_unguarded_access_has_empty_held(self, project):
        flows = {f.sym.name: f for f in project.flows_for_class(
            "repro.mini.engine.Engine")}
        pull_accesses = [a for a in flows["pull"].attr_accesses
                         if a.attr == "_queue"]
        assert pull_accesses
        assert all(a.held == frozenset() for a in pull_accesses)
