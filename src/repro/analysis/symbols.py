"""Project-wide symbol table for sgblint's cross-module rules.

One :class:`SymbolTable` indexes every analyzed file: modules, their
imports, top-level functions, classes with their methods and a
best-effort map of ``self.<attr>`` types.  Rules use it to resolve a
dotted name *as written in some module* to a global qualified name
(``repro.engine.database.Database.execute``), to walk a class's bases,
and to dispatch method calls on known repro types.

Resolution is deliberately conservative: anything dynamic (calls,
subscripts, rebinding, ``*`` imports) resolves to ``None`` and the
cross-module rules simply do not follow it.  A linter that guesses
wrong is worse than one that abstains — every false positive costs a
pragma.

Names outside the analyzed set (``time``, ``queue``, ``asyncio``) still
resolve *textually* through the import table: ``from queue import Queue``
makes ``Queue(...)`` resolve to the dotted string ``queue.Queue`` even
though no :class:`ClassSymbol` exists for it.  The call graph leans on
this to classify stdlib calls (``time.sleep``, ``queue.Queue.put``)
without modeling the stdlib.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.context import FileContext


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None.

    Call nodes and subscripts break the chain (``a().b`` is not a static
    dotted path), which is exactly the conservatism the rules want.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FunctionSymbol:
    """One function or method definition."""

    __slots__ = ("qualname", "module", "name", "cls", "node", "path",
                 "is_async", "nested", "param_types")

    def __init__(self, qualname: str, module: str, name: str,
                 cls: Optional[str], node: ast.AST, path: str,
                 is_async: bool, nested: bool = False):
        self.qualname = qualname
        self.module = module
        self.name = name
        #: Simple name of the enclosing class, or None for module level.
        self.cls = cls
        self.node = node
        self.path = path
        self.is_async = is_async
        #: Defined inside another function (the call graph and the flow
        #: pass treat them as part of the enclosing scope).
        self.nested = nested
        #: Parameter name -> dotted type name (from annotations), used
        #: for method dispatch on annotated parameters.
        self.param_types: Dict[str, str] = {}

    def __repr__(self) -> str:
        return f"<FunctionSymbol {self.qualname}>"


class ClassSymbol:
    """One class definition with its methods and inferred attribute types."""

    __slots__ = ("qualname", "module", "name", "node", "path", "bases",
                 "methods", "attr_types", "lock_attrs")

    def __init__(self, qualname: str, module: str, name: str,
                 node: ast.ClassDef, path: str):
        self.qualname = qualname
        self.module = module
        self.name = name
        self.node = node
        self.path = path
        #: Base-class names exactly as written (dotted), resolved lazily.
        self.bases: List[str] = []
        self.methods: Dict[str, FunctionSymbol] = {}
        #: ``self.<attr>`` -> dotted type name, inferred from
        #: ``self.x = ClassName(...)`` constructor assignments and
        #: ``x: ClassName`` annotations (module-local spelling).
        self.attr_types: Dict[str, str] = {}
        #: Attributes assigned a ``threading.Lock()`` / ``RLock()`` or a
        #: shared/exclusive ``RWLock()``.
        self.lock_attrs: Set[str] = set()

    def __repr__(self) -> str:
        return f"<ClassSymbol {self.qualname}>"


class ModuleSymbol:
    """One analyzed file, under its dotted module identity."""

    __slots__ = ("name", "path", "ctx", "imports", "functions", "classes")

    def __init__(self, name: str, path: str, ctx: FileContext):
        self.name = name
        self.path = path
        self.ctx = ctx
        #: Local name -> dotted target.  ``import queue`` -> ``queue:
        #: queue``; ``from repro.obs.trace import Tracer as T`` ->
        #: ``T: repro.obs.trace.Tracer``; ``import a.b`` -> ``a: a``.
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}

    def __repr__(self) -> str:
        return f"<ModuleSymbol {self.name}>"


#: Constructor names treated as lock factories for ``lock_attrs``.
_LOCK_CTORS = frozenset({"Lock", "RLock", "RWLock"})


class SymbolTable:
    """Index of every module/class/function across the analyzed files."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}
        self.functions: Dict[str, FunctionSymbol] = {}

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, contexts: Iterable[FileContext]) -> "SymbolTable":
        table = cls()
        for ctx in contexts:
            table.add_module(ctx)
        return table

    def add_module(self, ctx: FileContext) -> ModuleSymbol:
        mod = ModuleSymbol(ctx.module, ctx.path, ctx)
        # Last write wins when two files claim one module identity (e.g.
        # a fixture impersonating a repro module next to the real one) —
        # callers control the file set, so this stays predictable.
        self.modules[mod.name] = mod
        self._collect_imports(mod)
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls_sym=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
        return mod

    def _collect_imports(self, mod: ModuleSymbol) -> None:
        for node in ast.walk(mod.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports: abstain
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{node.module}.{alias.name}"

    def _add_function(self, mod: ModuleSymbol, node: ast.AST,
                      cls_sym: Optional[ClassSymbol]) -> FunctionSymbol:
        name = node.name  # type: ignore[attr-defined]
        if cls_sym is None:
            qualname = f"{mod.name}.{name}"
        else:
            qualname = f"{cls_sym.qualname}.{name}"
        sym = FunctionSymbol(
            qualname, mod.name, name,
            cls_sym.name if cls_sym is not None else None,
            node, mod.path,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        for arg in self._all_args(node):
            if arg.annotation is not None:
                ann = _annotation_name(arg.annotation)
                if ann:
                    sym.param_types[arg.arg] = ann
        if cls_sym is None:
            mod.functions[name] = sym
        else:
            cls_sym.methods[name] = sym
        self.functions[qualname] = sym
        # Index nested definitions too (a private helper defined inside
        # an operator method is still part of SGB009's cone), but under
        # the enclosing function's qualname.
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = FunctionSymbol(
                    f"{qualname}.<locals>.{child.name}", mod.name,
                    child.name, sym.cls, child, mod.path,
                    is_async=isinstance(child, ast.AsyncFunctionDef),
                    nested=True,
                )
                self.functions[nested.qualname] = nested
        return sym

    @staticmethod
    def _all_args(node: ast.AST) -> List[ast.arg]:
        args = node.args  # type: ignore[attr-defined]
        out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg:
            out.append(args.vararg)
        if args.kwarg:
            out.append(args.kwarg)
        return out

    def _add_class(self, mod: ModuleSymbol, node: ast.ClassDef) -> None:
        qualname = f"{mod.name}.{node.name}"
        cls_sym = ClassSymbol(qualname, mod.name, node.name, node, mod.path)
        for base in node.bases:
            dotted = dotted_name(base)
            if dotted:
                cls_sym.bases.append(dotted)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, item, cls_sym=cls_sym)
            elif isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                ann = _annotation_name(item.annotation)
                if ann:
                    cls_sym.attr_types[item.target.id] = ann
        self._infer_attr_types(cls_sym)
        mod.classes[node.name] = cls_sym
        self.classes[qualname] = cls_sym

    def _infer_attr_types(self, cls_sym: ClassSymbol) -> None:
        """``self.x = ClassName(...)`` / ``self.x: ClassName`` in any
        method body -> ``attr_types['x'] = 'ClassName'`` (module-local
        spelling, resolved through the import table on lookup)."""
        for method in cls_sym.methods.values():
            for node in ast.walk(method.node):
                target = None
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, None
                    ann = _annotation_name(node.annotation)
                    if ann and _is_self_attr(target):
                        cls_sym.attr_types.setdefault(target.attr, ann)
                    continue
                if target is None or not _is_self_attr(target):
                    continue
                if isinstance(value, ast.Call):
                    ctor = dotted_name(value.func)
                    if ctor:
                        cls_sym.attr_types.setdefault(target.attr, ctor)
                        tail = ctor.rsplit(".", 1)[-1]
                        if tail in _LOCK_CTORS:
                            cls_sym.lock_attrs.add(target.attr)

    # -- resolution --------------------------------------------------------
    def resolve(self, module: str, dotted: str) -> Optional[str]:
        """Resolve ``dotted`` as written in ``module`` to a global name.

        The result is a qualified name that may or may not exist in the
        table (``queue.Queue`` resolves textually even though the stdlib
        is not analyzed).  Returns ``None`` when the head of the chain is
        not a module-scope binding we track.
        """
        mod = self.modules.get(module)
        if mod is None:
            return None
        head, _, rest = dotted.partition(".")
        target: Optional[str] = None
        if head in mod.imports:
            target = mod.imports[head]
        elif head in mod.functions:
            target = mod.functions[head].qualname
        elif head in mod.classes:
            target = mod.classes[head].qualname
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def resolve_class(self, module: str, dotted: str) -> Optional[ClassSymbol]:
        qualname = self.resolve(module, dotted)
        if qualname is None:
            return None
        return self.classes.get(qualname)

    # -- class hierarchy ---------------------------------------------------
    def mro(self, cls_sym: ClassSymbol) -> List[ClassSymbol]:
        """The class and its known bases, depth-first, cycle-safe.

        Not Python's C3 — with single inheritance everywhere in this
        repo, a depth-first walk over *resolvable* bases is exact.
        """
        out: List[ClassSymbol] = []
        seen: Set[str] = set()
        stack = [cls_sym]
        while stack:
            current = stack.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            out.append(current)
            for base in current.bases:
                resolved = self.resolve_class(current.module, base)
                if resolved is not None:
                    stack.append(resolved)
        return out

    def resolve_method(self, cls_sym: ClassSymbol,
                       method: str) -> Optional[FunctionSymbol]:
        for klass in self.mro(cls_sym):
            if method in klass.methods:
                return klass.methods[method]
        return None

    def is_subclass_of(self, cls_sym: ClassSymbol, base_name: str) -> bool:
        """True when any class in the MRO is named ``base_name`` (simple
        name match, so fixtures that cannot import the real base still
        participate) or resolves to it."""
        for klass in self.mro(cls_sym):
            if klass.name == base_name or klass.qualname == base_name:
                return True
            for base in klass.bases:
                if base == base_name or base.endswith("." + base_name) or \
                        base.rsplit(".", 1)[-1] == base_name:
                    return True
        return False


def _annotation_name(node: ast.AST) -> Optional[str]:
    """Extract a class name from an annotation node.

    Handles plain names, dotted names, string annotations, and unwraps
    one level of ``Optional[X]``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip('"').strip("'")
        if text.startswith("Optional[") and text.endswith("]"):
            text = text[len("Optional["):-1]
        # Drop generic parameters: ``queue.Queue[Optional[X]]`` -> the
        # runtime type ``queue.Queue``.
        if "[" in text:
            text = text.split("[", 1)[0]
        return text or None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
        return base
    return dotted_name(node)


def _is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")
