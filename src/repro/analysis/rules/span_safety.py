"""SGB004 — spans and timers must be context-managed."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.context import FileContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

#: Attribute calls that mint a span/timer context manager.
SPAN_METHODS = frozenset({"span", "hist_timer", "start_span"})

#: Free-function form (``maybe_span(tracer, name)``).
SPAN_FUNCTIONS = frozenset({"maybe_span"})


@register
class SpanSafetyRule(Rule):
    """Span/timer factories must be entered via ``with`` (or returned by
    a factory); never discarded, left un-entered, or ``__enter__``-ed by
    hand.

    A ``TraceSpan`` or ``MetricBag.hist_timer`` only records on
    ``__exit__``.  A span that is created and dropped records nothing; a
    hand-called ``__enter__`` without a ``finally: __exit__`` leaks the
    tracer's span stack on the first exception, corrupting every parent
    id minted afterwards — which is why ``repro.obs`` ships ``with``-only
    APIs.

    Flagged shapes::

        tracer.span("phase")              # discarded: records nothing
        sp = bag.hist_timer("phase")      # assigned but never `with sp:`
        sp = tracer.span("x").__enter__() # bypasses exception safety

    Accepted shapes::

        with tracer.span("phase"):
            ...
        sp = tracer.span("phase")         # later: `with sp: ...`
        return tracer.span(name, **attrs) # factory functions
        stack.enter_context(bag.hist_timer("x"))
    """

    id = "SGB004"
    title = "span/timer not used as a context manager"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        yield from self._walk_scope(ctx, ctx.tree)

    def _walk_scope(self, ctx: FileContext,
                    scope: ast.AST) -> Iterator[Finding]:
        # Names used as `with <name>` contexts anywhere in this scope
        # (function bodies are scanned as their own scopes below).
        with_names = self._with_context_names(scope)
        for node, parent in _walk_with_parents_no_funcs(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not scope:
                yield from self._walk_scope(ctx, node)
                continue
            if not isinstance(node, ast.Call):
                continue
            if self._is_dunder_enter(node):
                yield self.finding(
                    ctx, node,
                    "explicit __enter__() on a span/timer; use a 'with' "
                    "block so __exit__ runs on every path",
                )
                continue
            if not self._is_span_factory(node):
                continue
            if isinstance(parent, ast.Expr):
                yield self.finding(
                    ctx, node,
                    "span/timer created and discarded — it is never "
                    "entered and records nothing; use 'with ...:'",
                )
            elif isinstance(parent, ast.Assign):
                names = [
                    t.id for t in parent.targets if isinstance(t, ast.Name)
                ]
                if names and not any(n in with_names for n in names):
                    yield self.finding(
                        ctx, node,
                        f"span/timer assigned to {names[0]!r} but never "
                        f"used as a 'with' context in this scope",
                    )

    @staticmethod
    def _is_span_factory(node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in SPAN_METHODS:
            return bool(node.args) or func.attr == "start_span"
        if isinstance(func, ast.Name) and func.id in SPAN_FUNCTIONS:
            return len(node.args) >= 2
        return False

    @staticmethod
    def _is_dunder_enter(node: ast.Call) -> bool:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "__enter__"):
            return False
        # Only flag when the receiver is itself a span factory call or a
        # plain name — ``super().__enter__()`` style delegation in a CM
        # implementation stays legal.
        return isinstance(func.value, (ast.Call, ast.Name)) and not (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        )

    @staticmethod
    def _with_context_names(scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node, _ in _walk_with_parents_no_funcs(scope):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name):
                        names.add(expr.id)
        return names


def _walk_with_parents_no_funcs(
    scope: ast.AST,
) -> Iterator[Tuple[ast.AST, Optional[ast.AST]]]:
    """Document-order ``(node, parent)`` walk that yields nested function
    definitions but does not descend into them (they are separate scopes
    for assigned-name tracking)."""
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(scope, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node is not scope:
            continue
        for child in reversed(list(ast.iter_child_nodes(node))):
            stack.append((child, node))
