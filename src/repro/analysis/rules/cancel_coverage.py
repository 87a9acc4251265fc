"""SGB009: operator hot loops must reach a cancel checkpoint.

``PhysicalOperator.__iter__`` hands each pass to the statement's
``QueryContext``, which checks the :class:`CancelToken` as each row
crosses a node edge, so any loop that *yields* per iteration is
covered for free.  The gap is loops that buffer: spool-then-aggregate
passes that evaluate thousands of key and argument expressions and fold
them without a single row leaving the operator.  A cancel or timeout
fired mid-aggregation is only observed after the whole partition is
ground through — on a large group that is seconds of dead burn past the
deadline.

This rule walks ``_execute`` (and the private helpers it calls that the
class defines or inherits) of every ``PhysicalOperator`` subclass, and
flags outermost loops that do per-row work (contain calls), never
yield, do not iterate a child operator (the child's own iterator
checks) or a ``self`` attribute (sized by the query), and reach no
cancel check — neither a direct ``*.check()`` on a cancel/token chain
nor a call into a function that reaches ``CancelToken.check`` via the
call graph (``self._checkpoint(i)`` counts).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

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


def _loop_body_nodes(loop: ast.AST) -> Iterator[ast.AST]:
    """Walk a loop body, skipping nested function/class scopes."""
    stack: List[ast.AST] = list(loop.body)  # type: ignore[attr-defined]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register
class CancelCheckpointRule(Rule):
    """Buffering loops in operator ``_execute`` paths need a reachable
    ``CancelToken.check``.

    Loops that yield every iteration are exempt — ``__iter__`` checks
    the token per emitted row.  Loops that iterate the child operator
    are exempt — the child's iterator checks.  What remains is per-row
    work on spooled data (aggregation passes, distance sweeps) where a
    cancel or deadline fired mid-loop goes unobserved until the loop
    ends.  Add ``self._checkpoint(i)`` (checks every N iterations, from
    ``PhysicalOperator``) or a direct ``self._ctx.cancel.check()`` at a
    sensible stride; deliberate tight loops too cheap to matter take a
    justified pragma.
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
            if self._check_loop(project, cls_sym, sym, loop,
                                child_attrs) is not None
        ]
        # Flag innermost offenders only: a checkpoint inserted in the
        # per-row loop also covers every enclosing loop that was only
        # uncovered because this one was.
        for loop in uncovered:
            if any(other is not loop and self._contains(loop, other)
                   for other in uncovered):
                continue
            finding = self._check_loop(project, cls_sym, sym, loop,
                                       child_attrs)
            if finding is not None:
                yield finding

    @staticmethod
    def _contains(outer: ast.AST, inner: ast.AST) -> bool:
        return any(node is inner for node in ast.walk(outer)
                   if node is not outer)

    def _all_loops(self, func_node: ast.AST) -> List[ast.AST]:
        loops: List[ast.AST] = []
        stack: List[ast.AST] = list(
            func_node.body)  # type: ignore[attr-defined]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.For, ast.While)):
                loops.append(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
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

    def _check_loop(self, project, cls_sym, sym, loop,
                    child_attrs: Set[str]) -> Optional[Finding]:
        # Exempt: iterating the child operator (its iterator checks).
        if isinstance(loop, ast.For) and self._iterates_child(
                loop.iter, child_attrs):
            return None
        # Exempt: trip count bounded by the query shape — iterating a
        # ``self`` attribute itself (spec lists, sort keys, centres).  A
        # local that aliases one is not enough: the name may be rebound
        # to spooled data.
        if isinstance(loop, ast.For) and _is_self_attribute(loop.iter):
            return None
        calls: List[ast.Call] = []
        yields = False
        for node in _loop_body_nodes(loop):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                yields = True
            elif isinstance(node, ast.Call):
                if _is_cancel_check_call(node):
                    return None
                calls.append(node)
        if yields or not calls:
            return None
        # Indirect checkpoint: any call whose resolved callee reaches
        # CancelToken.check through the call graph.
        for call in calls:
            callee = self._callee_of(project, sym, call)
            if callee is None:
                continue
            if callee.endswith(_CHECK_TAIL):
                return None
            if callee in project.graph.calls and \
                    project.graph.reachable_path(
                        callee,
                        lambda c, s: c.endswith(_CHECK_TAIL)) is not None:
                return None
        return self.finding_at(
            sym.path, loop,
            f"{sym.cls}.{sym.name}() loop does per-row work with no "
            f"reachable CancelToken.check and no yield per iteration — "
            f"insert self._checkpoint(i) so cancellation and deadlines "
            f"are observed mid-loop",
        )

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
