"""Whole-program analysis container.

A :class:`Project` owns the cross-file state the rules share: parsed :class:`FileContext` objects, the
:class:`~repro.analysis.symbols.SymbolTable`, the
:class:`~repro.analysis.callgraph.CallGraph`, and the
:class:`~repro.analysis.flow.FlowAnalyzer` results.  All three layers
are built lazily on first access and exactly once per run — the runner
constructs one ``Project`` per invocation and hands it to every
rule.

Only files whose dotted module identity is inside the ``repro`` package
participate (fixtures opt in by impersonating a repro module with a
``# sgblint: module=repro...`` pragma); everything else — tests,
benchmarks, scripts — is out of every rule's scope and costs graph
build time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import FileContext
from repro.analysis.flow import FlowAnalyzer, FunctionFlow
from repro.analysis.symbols import SymbolTable


class Project:
    """Cross-file analysis state for one sgblint run."""

    def __init__(self, contexts: Iterable[FileContext],
                 package: str = "repro"):
        self.package = package
        #: path -> context, for every file in the run (used to honour
        #: per-line pragmas on project-rule findings).
        self.contexts: Dict[str, FileContext] = {}
        #: module name -> context, restricted to the analyzed package.
        self.package_contexts: Dict[str, FileContext] = {}
        prefix = package + "."
        for ctx in contexts:
            self.contexts[ctx.path] = ctx
            if ctx.module == package or ctx.module.startswith(prefix):
                self.package_contexts[ctx.module] = ctx
        self._table: Optional[SymbolTable] = None
        self._graph: Optional[CallGraph] = None
        self._flow: Optional[FlowAnalyzer] = None

    # -- lazy layers -------------------------------------------------------
    @property
    def table(self) -> SymbolTable:
        if self._table is None:
            self._table = SymbolTable.build(
                self.package_contexts.values())
        return self._table

    @property
    def graph(self) -> CallGraph:
        if self._graph is None:
            self._graph = CallGraph.build(self.table)
        return self._graph

    @property
    def flow(self) -> FlowAnalyzer:
        if self._flow is None:
            self._flow = FlowAnalyzer.build(self.table)
        return self._flow

    # -- helpers -----------------------------------------------------------
    def is_disabled(self, path: str, line: int, rule_id: str) -> bool:
        ctx = self.contexts.get(path)
        return ctx is not None and ctx.is_disabled(line, rule_id)

    def flows_for_class(self, class_qualname: str) -> List[FunctionFlow]:
        cls_sym = self.table.classes.get(class_qualname)
        if cls_sym is None:
            return []
        out = []
        for method in cls_sym.methods.values():
            flow = self.flow.flows.get(method.qualname)
            if flow is not None:
                out.append(flow)
        return out
