"""SGB009: rows enter the plan, and multiply, at a cancel checkpoint.

Nothing checks the :class:`CancelToken` as a row crosses a node edge:
the nodes check it where rows enter the plan and where they multiply,
as PostgreSQL checks for interrupts inside scan and build loops.  A row
a node draws from a child operator has passed a checkpoint already; any
other row has not.  So a node must check wherever it produces rows or
work from data it holds — a table, literal rows, a spool, a hash table,
an index — and a cancel or timeout fired there is otherwise only
observed after the whole input is ground through: seconds of dead burn
past the deadline on a large table, a skewed join or a large group.

This rule walks ``_execute`` (and the private helpers it calls that the
class defines or inherits) of every ``PhysicalOperator`` subclass, and
flags

* loops that yield rows or do per-row work (contain calls), do not
  iterate a child operator or a ``self`` attribute (sized by the
  query), and reach no cancel check in their own body — a check in an
  enclosing loop runs once per outer iteration and bounds nothing of
  the inner loop's fan-out;
* rows an ``_execute`` hands out (``return`` / ``yield from``) that are
  neither drawn from a child operator nor passed through a call that
  reaches a check (``self._checked(rows)``).

A check is a direct ``*.check()`` on a cancel/token chain or a call
into a function that reaches ``CancelToken.check`` via the call graph
(``self._ctx.check()``, ``self._checkpoint(i)``, ``self._stride`` and
``self._checked`` count).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Base class gating which classes this rule examines.
_OPERATOR_BASE = "PhysicalOperator"

#: The canonical cancel check target in the call graph.
_CHECK_TAIL = "CancelToken.check"


def _is_cancel_check_call(node: ast.Call) -> bool:
    """Direct check: ``<chain>.check(...)`` where the chain mentions a
    cancel token (``self._ctx.cancel.check()``, ``token.check()``)."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "check"):
        return False
    chain: List[str] = []
    value: ast.AST = func.value
    while isinstance(value, ast.Attribute):
        chain.append(value.attr)
        value = value.value
    if isinstance(value, ast.Name):
        chain.append(value.id)
    text = ".".join(chain).lower()
    return "cancel" in text or "token" in text


def _is_self_attribute(node: ast.AST) -> bool:
    """``node`` is ``self.<attr>``."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _body_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a loop's or function's body, skipping nested function/class
    scopes."""
    stack: List[ast.AST] = list(scope.body)  # type: ignore[attr-defined]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register
class CancelCheckpointRule(Rule):
    """Rows that enter an operator's output, and per-row work, on data
    the operator holds need a reachable ``CancelToken.check``.

    Nothing checks at node edges, so a loop is not covered by yielding.
    Loops that iterate a child operator are exempt — the rows entered
    the plan through a check below.  What remains is loops over held
    data (a spool, a hash bucket, index hits) that yield rows or do
    per-row work: they must reach a check in their own body — count
    candidates in line and call ``self._stride()`` at the end of each
    stride, or draw the data through ``self._checked(rows)``.  Likewise
    the rows an ``_execute`` returns or yields from — a table's, literal
    rows, a sorted or aggregated buffer — must come from a child
    operator or through ``self._checked(rows)``, which checks before
    each chunk.
    Deliberate tight loops too cheap to matter take a justified pragma.
    """

    id = "SGB009"
    title = "operator hot loop without a reachable cancel checkpoint"
    caught = (
        "PR 10: the aggregate fold loops ran a whole partition past a "
        "cancel or deadline; they now call PhysicalOperator._checkpoint "
        "every CHECKPOINT_EVERY rows"
    )

    def check_project(self, project) -> Iterator[Finding]:
        table = project.table
        checked: Set[str] = set()  # an inherited helper is checked once
        for cls_qualname in sorted(table.classes):
            cls_sym = table.classes[cls_qualname]
            if cls_sym.name == _OPERATOR_BASE:
                continue
            if not table.is_subclass_of(cls_sym, _OPERATOR_BASE):
                continue
            if "_execute" not in cls_sym.methods:
                continue
            for sym in self._execute_cone(project, cls_sym):
                if sym.qualname not in checked:
                    checked.add(sym.qualname)
                    yield from self._check_function(project, cls_sym, sym)

    def _execute_cone(self, project, cls_sym):
        """``_execute`` plus the private helpers it (transitively) calls
        on this class or a base — the operator's hot path."""
        start = cls_sym.methods["_execute"]
        own = {klass.name for klass in project.table.mro(cls_sym)}
        out = [start]
        seen: Set[str] = {start.qualname}
        queue = [start.qualname]
        while queue:
            current = queue.pop(0)
            for site in project.graph.sites(current):
                sym = project.table.functions.get(site.callee)
                if sym is None or sym.qualname in seen:
                    continue
                if sym.cls not in own or not sym.name.startswith("_"):
                    continue
                seen.add(sym.qualname)
                out.append(sym)
                queue.append(sym.qualname)
        return out

    def _check_function(self, project, cls_sym, sym) -> Iterator[Finding]:
        child_attrs = self._child_operator_attrs(project, cls_sym)
        loops = self._all_loops(sym.node)
        uncovered = [
            loop for loop in loops
            if self._needs_check(loop, child_attrs)
            and not self._reaches_check(project, sym, _body_nodes(loop))
        ]
        # Flag innermost offenders only: a checkpoint inserted in the
        # per-row loop also covers every enclosing loop that was only
        # uncovered because this one was.
        for loop in uncovered:
            if any(other is not loop and self._contains(loop, other)
                   for other in uncovered):
                continue
            does = ("yields rows from" if any(
                isinstance(node, (ast.Yield, ast.YieldFrom))
                for node in _body_nodes(loop))
                else "does per-row work on")
            yield self.finding_at(
                sym.path, loop,
                f"{sym.cls}.{sym.name}() loop {does} data the node "
                f"holds with no reachable CancelToken.check in it — "
                f"count in line and call self._stride() at the end of "
                f"each stride, or draw the data through "
                f"self._checked(rows)",
            )
        if sym.name == "_execute":
            yield from self._check_emits(project, sym, child_attrs)

    def _check_emits(self, project, sym,
                     child_attrs: Set[str]) -> Iterator[Finding]:
        """``return`` / ``yield from`` values of ``_execute``: rows drawn
        from a child, or through a call that reaches a check."""
        for node in _body_nodes(sym.node):
            if isinstance(node, (ast.Return, ast.YieldFrom)):
                value = node.value
                if value is None or self._iterates_child(value, child_attrs):
                    continue
                inner = list(ast.walk(value))
                if not any(isinstance(n, (ast.Name, ast.Attribute))
                           for n in inner):
                    continue  # a constant: nothing held
                if self._reaches_check(project, sym, inner):
                    continue
                yield self.finding_at(
                    sym.path, node,
                    f"{sym.cls}._execute() hands out rows that are not "
                    f"drawn from a child operator with no cancel check "
                    f"— return them through self._checked(rows), which "
                    f"checks before each chunk",
                )

    @staticmethod
    def _contains(outer: ast.AST, inner: ast.AST) -> bool:
        return any(node is inner for node in ast.walk(outer)
                   if node is not outer)

    def _all_loops(self, func_node: ast.AST) -> List[ast.AST]:
        loops = [node for node in _body_nodes(func_node)
                 if isinstance(node, (ast.For, ast.While))]
        return sorted(loops, key=lambda n: n.lineno)

    def _child_operator_attrs(self, project, cls_sym) -> Set[str]:
        """``self.<attr>`` names whose inferred type is itself a
        PhysicalOperator (plus the conventional names)."""
        attrs = {"child", "left", "right", "children", "inputs"}
        for klass in project.table.mro(cls_sym):
            for attr, type_name in klass.attr_types.items():
                target = project.table.resolve_class(
                    klass.module, type_name)
                if target is not None and project.table.is_subclass_of(
                        target, _OPERATOR_BASE):
                    attrs.add(attr)
        return attrs

    def _needs_check(self, loop, child_attrs: Set[str]) -> bool:
        """Does ``loop`` draw rows or work from data the node holds?"""
        # Exempt: iterating the child operator (its rows entered the
        # plan through a check below).
        if isinstance(loop, ast.For) and self._iterates_child(
                loop.iter, child_attrs):
            return False
        # Exempt: trip count bounded by the query shape — iterating a
        # ``self`` attribute itself (spec lists, sort keys, centres).  A
        # local that aliases one is not enough: the name may be rebound
        # to spooled data.
        if isinstance(loop, ast.For) and _is_self_attribute(loop.iter):
            return False
        return any(isinstance(node, (ast.Yield, ast.YieldFrom, ast.Call))
                   for node in _body_nodes(loop))

    def _reaches_check(self, project, sym, nodes: Iterable[ast.AST]) -> bool:
        """Is one of ``nodes`` a cancel check, directly or through the
        call graph?"""
        calls = [node for node in nodes if isinstance(node, ast.Call)]
        if any(_is_cancel_check_call(call) for call in calls):
            return True
        for call in calls:
            callee = self._callee_of(project, sym, call)
            if callee is None:
                continue
            if callee.endswith(_CHECK_TAIL):
                return True
            if callee in project.graph.calls and \
                    project.graph.reachable_path(
                        callee,
                        lambda c, s: c.endswith(_CHECK_TAIL)) is not None:
                return True
        return False

    def _iterates_child(self, iter_expr: ast.expr,
                        child_attrs: Set[str]) -> bool:
        for node in ast.walk(iter_expr):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in child_attrs):
                return True
        return False

    def _callee_of(self, project, sym, call: ast.Call) -> Optional[str]:
        for site in project.graph.sites(sym.qualname):
            if site.node is call:
                return site.callee if site.resolved else None
        return None
