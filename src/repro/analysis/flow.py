"""Intraprocedural flow pass: lock-held sets.

For each analyzed function this computes, by a sequential walk over the
statement list (no full CFG — straight-line + ``with``/``try`` nesting
covers every pattern in this codebase):

* :attr:`FunctionFlow.attr_accesses` — every ``self.<attr>`` read or
  write, annotated with the frozenset of lock names held at that point
  (``{"_lock"}``, ``{"_lock", "_metrics_lock"}``, …).
* :attr:`FunctionFlow.call_sites_held` — locks held at each call
  expression, so interprocedural rules can push held-sets into callees.
* :attr:`FunctionFlow.acquire_order` — ordered (outer, inner) pairs
  observed when a second lock is taken while one is already held; rule
  SGB007 cross-checks these pairs project-wide for inversions.

A function that acquires a lock and does *not* release it on the path
to return (an "acquiring helper" such as
``Database._acquire_statement_lock``) leaves it held: callers inherit
it into their held-set after the call.

Lock names are ``self.<attr>`` attributes whose class assigns them a
``threading.Lock()``/``RLock()``/``RWLock()`` (from
:attr:`ClassSymbol.lock_attrs`), plus any ``self._*lock*``-named
attribute used in a ``with`` — the naming convention carries the intent
even when the constructor is not seen (fixtures, condition variables).

Shared/exclusive locks hold ``<lock>`` in either mode: ``with
self.<lock>``, ``with self.<lock>.<mode>()``, ``acquire()`` and
``acquire_shared()`` all put it in the held-set.  The shared mode also
adds the marker :func:`shared_marker` (``"<lock>:shared"``), meaning
"held, and only shared here"; SGB007 flags a guarded write made under
it.  Markers follow the held-set's must-semantics, so a site whose mode
is unknown (an acquiring helper that takes either mode) carries none.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.symbols import ClassSymbol, FunctionSymbol, SymbolTable


def _self_attr(node: ast.AST) -> Optional[str]:
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _looks_like_lock(attr: str) -> bool:
    return "lock" in attr.lower() or "cond" in attr.lower()


def shared_marker(lock: str) -> str:
    """The held-set entry meaning ``lock`` is held in shared mode only."""
    return f"{lock}:shared"


def _is_marker(name: str) -> bool:
    return name.endswith(shared_marker(""))


class AttrAccess:
    """One ``self.<attr>`` read or write with the locks held there."""

    __slots__ = ("attr", "node", "is_write", "held")

    def __init__(self, attr: str, node: ast.AST, is_write: bool,
                 held: FrozenSet[str]):
        self.attr = attr
        self.node = node
        self.is_write = is_write
        self.held = held


class FunctionFlow:
    """Flow facts for one function."""

    __slots__ = ("sym", "lock_attrs", "attr_accesses", "call_sites_held",
                 "acquire_order")

    def __init__(self, sym: FunctionSymbol, lock_attrs: Set[str]):
        self.sym = sym
        #: Lock-attribute universe for the enclosing class.
        self.lock_attrs = set(lock_attrs)
        self.attr_accesses: List[AttrAccess] = []
        #: id(ast.Call) -> frozenset of lock names held at that call.
        self.call_sites_held: Dict[int, FrozenSet[str]] = {}
        self.acquire_order: List[Tuple[str, str, int]] = []


#: Acquire method -> whether it takes the shared mode.
_ACQUIRE_METHODS = {"acquire": False, "acquire_shared": True}
_RELEASE_METHODS = frozenset({"release", "release_shared"})


class FlowAnalyzer:
    """Builds :class:`FunctionFlow` for every method of analyzed classes.

    Per-function facts are computed with an empty entry held-set (SGB007
    adds the entry sets of private helpers itself); the leaves-held
    summaries are computed first and callers consult them when walking
    their own bodies, so helper-acquired locks propagate one level
    without a fixpoint inside this module.
    """

    def __init__(self, table: SymbolTable):
        self.table = table
        self.flows: Dict[str, FunctionFlow] = {}
        # Pre-pass: which functions leave a lock held (acquiring
        # helpers).  Needed before the main walk so callers of
        # ``self._acquire_statement_lock()`` extend their held-set.
        self._leaves_held: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "FlowAnalyzer":
        analyzer = cls(table)
        analyzer._compute_leaves_held()
        for sym in table.functions.values():
            if sym.nested:
                continue
            analyzer.flows[sym.qualname] = analyzer._analyze(sym)
        return analyzer

    # -- pre-pass: acquiring helpers --------------------------------------
    def _compute_leaves_held(self) -> None:
        for sym in self.table.functions.values():
            if sym.nested:
                continue
            exclusive: Set[str] = set()
            shared: Set[str] = set()
            released: Set[str] = set()
            for node in ast.walk(sym.node):
                if not isinstance(node, ast.Call) or \
                        not isinstance(node.func, ast.Attribute):
                    continue
                lock = _self_attr(node.func.value)
                if lock is None:
                    continue
                method = node.func.attr
                if method in _ACQUIRE_METHODS:
                    (shared if _ACQUIRE_METHODS[method] else
                     exclusive).add(lock)
                elif method in _RELEASE_METHODS:
                    released.add(lock)
            held = (exclusive | shared) - released
            # Shared only when no path takes the lock exclusive.
            held |= {shared_marker(lock)
                     for lock in shared - exclusive - released}
            if held:
                self._leaves_held[sym.qualname] = held

    # -- per-function walk -------------------------------------------------
    def _analyze(self, sym: FunctionSymbol) -> FunctionFlow:
        cls_sym = self._enclosing_class(sym)
        lock_attrs: Set[str] = set()
        if cls_sym is not None:
            for klass in self.table.mro(cls_sym):
                lock_attrs |= klass.lock_attrs
        flow = FunctionFlow(sym, lock_attrs)
        body = sym.node.body  # type: ignore[attr-defined]
        self._walk_block(flow, body, frozenset())
        return flow

    def _enclosing_class(self, sym: FunctionSymbol) -> Optional[ClassSymbol]:
        if sym.cls is None:
            return None
        return self.table.classes.get(f"{sym.module}.{sym.cls}")

    def _is_lock_name(self, flow: FunctionFlow, attr: str) -> bool:
        return attr in flow.lock_attrs or _looks_like_lock(attr)

    def _walk_block(self, flow: FunctionFlow,
                    stmts: List[ast.stmt],
                    held: FrozenSet[str]) -> FrozenSet[str]:
        """Walk statements in order, threading the held-set through
        acquire/release calls; returns the held-set at block exit."""
        for stmt in stmts:
            held = self._walk_stmt(flow, stmt, held)
        return held

    def _walk_stmt(self, flow: FunctionFlow,
                   stmt: ast.stmt,
                   held: FrozenSet[str]) -> FrozenSet[str]:
        if isinstance(stmt, ast.With):
            return self._walk_with(flow, stmt, held)
        if isinstance(stmt, ast.Try):
            inner = self._walk_block(flow, stmt.body, held)
            for handler in stmt.handlers:
                self._walk_block(flow, handler.body, held)
            inner = self._walk_block(flow, stmt.orelse, inner)
            return self._walk_block(flow, stmt.finalbody, inner)
        if isinstance(stmt, (ast.If,)):
            self._scan_expr(flow, stmt.test, held)
            after = self._walk_block(flow, stmt.body, held)
            after_else = self._walk_block(flow, stmt.orelse, held)
            # Merge conservatively: a lock counts as held after the If
            # only when both branches leave it held.
            return after & after_else if stmt.orelse else held
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(flow, stmt.iter, held)
            self._walk_block(flow, stmt.body, held)
            self._walk_block(flow, stmt.orelse, held)
            return held
        if isinstance(stmt, ast.While):
            held = self._scan_expr_held(flow, stmt.test, held)
            self._walk_block(flow, stmt.body, held)
            self._walk_block(flow, stmt.orelse, held)
            return held
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return held  # nested scopes analyzed separately
        # Plain statement: scan expressions, updating held on
        # acquire/release calls in evaluation order.
        return self._scan_stmt_exprs(flow, stmt, held)

    def _walk_with(self, flow: FunctionFlow,
                   stmt: ast.With,
                   held: FrozenSet[str]) -> FrozenSet[str]:
        inner = set(held)
        for item in stmt.items:
            expr = item.context_expr
            self._scan_expr(flow, expr, frozenset(inner))
            # ``with self.L:`` or ``with self.L.<mode>():``.
            mode = None
            if isinstance(expr, ast.Call) and \
                    isinstance(expr.func, ast.Attribute):
                mode, expr = expr.func.attr, expr.func.value
            lock = _self_attr(expr)
            if lock is not None and self._is_lock_name(flow, lock):
                self._record_acquire_order(flow, frozenset(inner), lock,
                                           stmt.lineno)
                inner.add(lock)
                if mode == "shared":
                    inner.add(shared_marker(lock))
        self._walk_block(flow, stmt.body, frozenset(inner))
        return held  # with releases on exit

    # -- expression scanning ----------------------------------------------
    def _scan_stmt_exprs(self, flow: FunctionFlow,
                         stmt: ast.stmt,
                         held: FrozenSet[str]) -> FrozenSet[str]:
        writes: Set[int] = set()
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    writes.add(id(node))
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            for node in ast.walk(stmt.target):
                writes.add(id(node))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                for node in ast.walk(target):
                    writes.add(id(node))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                held = self._handle_call(flow, node, held)
                flow.call_sites_held[id(node)] = held
            attr = _self_attr(node)
            if attr is not None and not self._is_lock_name(flow, attr):
                is_write = id(node) in writes or (
                    isinstance(getattr(node, "ctx", None),
                               (ast.Store, ast.Del)))
                flow.attr_accesses.append(
                    AttrAccess(attr, node, is_write, held))
        return held

    def _scan_expr(self, flow: FunctionFlow,
                   expr: ast.expr,
                   held: FrozenSet[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                flow.call_sites_held[id(node)] = held
            attr = _self_attr(node)
            if attr is not None and not self._is_lock_name(flow, attr):
                is_write = isinstance(getattr(node, "ctx", None),
                                      (ast.Store, ast.Del))
                flow.attr_accesses.append(
                    AttrAccess(attr, node, is_write, held))

    def _scan_expr_held(self, flow: FunctionFlow,
                        expr: ast.expr,
                        held: FrozenSet[str]) -> FrozenSet[str]:
        """Like :meth:`_scan_expr` but lets acquire calls extend the
        held-set — ``while not self._lock.acquire(timeout=...):`` loops
        hold the lock once the condition succeeds."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                held = self._handle_call(flow, node, held)
                flow.call_sites_held[id(node)] = held
        return held

    def _handle_call(self, flow: FunctionFlow, node: ast.Call,
                     held: FrozenSet[str]) -> FrozenSet[str]:
        func = node.func
        if isinstance(func, ast.Attribute):
            lock = _self_attr(func.value)
            if lock is not None and self._is_lock_name(flow, lock):
                if func.attr in _ACQUIRE_METHODS:
                    self._record_acquire_order(flow, held, lock,
                                               node.lineno)
                    if _ACQUIRE_METHODS[func.attr]:
                        return held | {lock, shared_marker(lock)}
                    return held | {lock}
                if func.attr in _RELEASE_METHODS:
                    return held - {lock, shared_marker(lock)}
            # Calling an acquiring helper extends the held-set: the
            # helper's ``leaves_held`` summary names the lock attrs.
            if isinstance(func.value, ast.Name) and \
                    func.value.id == "self" and flow.sym.cls is not None:
                helper = f"{flow.sym.module}.{flow.sym.cls}.{func.attr}"
                extra = self._leaves_held.get(helper)
                if extra:
                    return held | frozenset(extra)
        return held

    def _record_acquire_order(self, flow: FunctionFlow,
                              held: FrozenSet[str], lock: str,
                              lineno: int) -> None:
        for outer in held:
            if outer != lock and not _is_marker(outer):
                flow.acquire_order.append((outer, lock, lineno))
