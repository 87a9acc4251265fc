"""Call graph over the project symbol table.

Each analyzed function gets a list of :class:`CallSite` records whose
``callee`` is either a resolved qualified name (``repro.engine.database.
Database.execute``, ``time.sleep``) or an *unresolved marker* of the
form ``?<attr>`` (``?put`` for ``something.put(...)`` whose receiver
type is unknown).  Rules decide per-rule how to treat markers — SGB008
matches ``?get``/``?put`` against known-blocking method names only when
the receiver's inferred type says so, while SGB009 treats unresolved
calls as opaque (no cancel check reachable through them).

Resolution strategies, in order, for ``expr.method(...)``:

1. ``name(...)`` — module scope: local function, class (constructor),
   or import.
2. ``self.method(...)`` — dispatch on the enclosing class's MRO.
3. ``self.attr.method(...)`` — the class's inferred ``attr_types``.
4. ``var.method(...)`` — local variable types from ``var = Ctor(...)``
   assignments and parameter annotations within the function body.
5. ``module.func(...)`` / ``Class.method(...)`` — the import table.

Anything else yields the ``?<attr>`` marker.  Callables that are only
*passed* (``asyncio.to_thread(fn)``, ``pool.submit(fn)``) create no
edge — an executor hop really does break the synchronous chain, which
is exactly the semantics SGB008 needs.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.symbols import (
    ClassSymbol,
    FunctionSymbol,
    SymbolTable,
    dotted_name,
)


class CallSite:
    """One call expression inside an analyzed function."""

    __slots__ = ("caller", "callee", "node", "path", "lineno")

    def __init__(self, caller: str, callee: str, node: ast.Call,
                 path: str):
        self.caller = caller
        #: Resolved qualified name, or ``?<attr>`` when the receiver is
        #: unknown, or ``?`` for calls with no extractable name.
        self.callee = callee
        self.node = node
        self.path = path
        self.lineno = node.lineno

    @property
    def resolved(self) -> bool:
        return not self.callee.startswith("?")

    def __repr__(self) -> str:
        return f"<CallSite {self.caller} -> {self.callee} @{self.lineno}>"


class CallGraph:
    """caller qualname -> outgoing call sites, with reachability helpers."""

    def __init__(self, table: SymbolTable):
        self.table = table
        self.calls: Dict[str, List[CallSite]] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        for sym in list(table.functions.values()):
            if sym.nested:
                continue  # folded into the enclosing function below
            graph.calls[sym.qualname] = graph._collect_calls(sym)
        return graph

    def _collect_calls(self, sym: FunctionSymbol) -> List[CallSite]:
        local_types = self._local_var_types(sym)
        cls_sym = self._enclosing_class(sym)
        sites: List[CallSite] = []
        for node in ast.walk(sym.node):
            if not isinstance(node, ast.Call):
                continue
            callee = self._resolve_call(sym, cls_sym, local_types, node)
            sites.append(CallSite(sym.qualname, callee, node, sym.path))
        return sites

    def _enclosing_class(self, sym: FunctionSymbol) -> Optional[ClassSymbol]:
        if sym.cls is None:
            return None
        return self.table.classes.get(f"{sym.module}.{sym.cls}")

    def _local_var_types(self, sym: FunctionSymbol) -> Dict[str, str]:
        """``var = Ctor(...)`` and annotated params -> var: dotted ctor
        name as written in the module (resolved through imports later)."""
        types: Dict[str, str] = dict(sym.param_types)
        for node in ast.walk(sym.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            elif isinstance(node, ast.withitem) and \
                    node.optional_vars is not None:
                target, value = node.optional_vars, node.context_expr
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call):
                ctor = dotted_name(value.func)
                if ctor:
                    types[target.id] = ctor
                else:
                    types.pop(target.id, None)
            elif value is not None:
                types.pop(target.id, None)  # rebound to something opaque
        return types

    def _resolve_call(self, sym: FunctionSymbol,
                      cls_sym: Optional[ClassSymbol],
                      local_types: Dict[str, str],
                      node: ast.Call) -> str:
        func = node.func
        # -- bare name: local def, class ctor, or import -------------------
        if isinstance(func, ast.Name):
            resolved = self.table.resolve(sym.module, func.id)
            if resolved is not None:
                return self._ctor_to_init(resolved)
            # Nested function defined in this same body?
            nested = f"{sym.qualname}.<locals>.{func.id}"
            if nested in self.table.functions:
                return nested
            return f"?{func.id}"
        if not isinstance(func, ast.Attribute):
            return "?"
        attr = func.attr
        recv = func.value
        # -- self.method(...) ----------------------------------------------
        if isinstance(recv, ast.Name) and recv.id == "self":
            if cls_sym is not None:
                method = self.table.resolve_method(cls_sym, attr)
                if method is not None:
                    return method.qualname
            return f"?{attr}"
        # -- self.attr.method(...) -----------------------------------------
        if (isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self" and cls_sym is not None):
            declared = self._attr_type(cls_sym, recv.attr)
            if declared is not None:
                return self._dispatch_on_type(*declared, attr)
            return f"?{attr}"
        # -- var.method(...) -----------------------------------------------
        if isinstance(recv, ast.Name) and recv.id in local_types:
            return self._dispatch_on_type(
                sym.module, local_types[recv.id], attr)
        # -- module.func(...) / Class.method(...) / a.b.c(...) -------------
        dotted = dotted_name(func)
        if dotted is not None:
            resolved = self.table.resolve(sym.module, dotted)
            if resolved is not None:
                return self._ctor_to_init(resolved)
            return f"?{attr}"
        return f"?{attr}"

    def _attr_type(self, cls_sym: ClassSymbol,
                   attr: str) -> Optional[Tuple[str, str]]:
        """``(module, type name)`` of ``self.<attr>``: the type as spelled
        in the module of the class (or base) that declares it."""
        for klass in self.table.mro(cls_sym):
            if attr in klass.attr_types:
                return klass.module, klass.attr_types[attr]
        return None

    def _dispatch_on_type(self, module: str, type_name: str,
                          method: str) -> str:
        """Resolve ``<type>.<method>`` where ``type_name`` is spelled as
        in ``module`` (``Tracer``, ``queue.Queue``, ``threading.RLock``)."""
        target_cls = self.table.resolve_class(module, type_name)
        if target_cls is not None:
            resolved = self.table.resolve_method(target_cls, method)
            if resolved is not None:
                return resolved.qualname
            return f"{target_cls.qualname}.{method}"
        # Unanalyzed type (stdlib): resolve the type name textually so
        # ``q.get`` on a ``queue.Queue`` becomes ``queue.Queue.get``.
        textual = self.table.resolve(module, type_name)
        if textual is not None:
            return f"{textual}.{method}"
        return f"{type_name}.{method}"

    def _ctor_to_init(self, qualname: str) -> str:
        """Calling a known class means calling its ``__init__`` for
        reachability purposes; unknown names pass through unchanged."""
        cls_sym = self.table.classes.get(qualname)
        if cls_sym is not None:
            init = self.table.resolve_method(cls_sym, "__init__")
            if init is not None:
                return init.qualname
        return qualname

    # -- queries -----------------------------------------------------------
    def sites(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def callees(self, qualname: str) -> Set[str]:
        return {site.callee for site in self.sites(qualname)}

    def reachable_path(
        self, start: str,
        target: Callable[[str, CallSite], bool],
        max_depth: int = 12,
    ) -> Optional[List[CallSite]]:
        """BFS from ``start``; return the chain of call sites leading to
        the first callee for which ``target(callee, site)`` is true, or
        ``None``.  Only resolved edges into *analyzed* functions are
        expanded; ``target`` also sees leaf (unanalyzed) callees, so a
        predicate can match ``time.sleep`` without a function body.
        """
        seen: Set[str] = {start}
        queue: List[Tuple[str, List[CallSite]]] = [(start, [])]
        while queue:
            current, chain = queue.pop(0)
            if len(chain) >= max_depth:
                continue
            for site in self.sites(current):
                if target(site.callee, site):
                    return chain + [site]
                if site.callee in seen or not site.resolved:
                    continue
                seen.add(site.callee)
                if site.callee in self.calls:
                    queue.append((site.callee, chain + [site]))
        return None


def format_chain(chain: Iterable[CallSite]) -> str:
    """``a -> b -> c`` rendering of a reachability chain for messages."""
    parts: List[str] = []
    for site in chain:
        if not parts:
            parts.append(site.caller.rsplit(".", 1)[-1])
        parts.append(site.callee.lstrip("?"))
    return " -> ".join(parts)
