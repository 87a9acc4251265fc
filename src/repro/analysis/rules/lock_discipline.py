"""SGB007: shared attributes must be accessed under their guarding lock.

The guard set for each attribute is *inferred from the code itself*:
if most accesses of ``self._stream_views`` across a class happen inside
``with self._lock`` (or with the lock held via an acquiring helper such
as ``Database._acquire_statement_lock``), the rule concludes ``_lock``
guards ``_stream_views`` and flags the stragglers.  A second sub-check
compares lock *acquisition order* pairs project-wide: once any site
establishes ``_lock`` -> ``_metrics_lock``, a site taking them in the
reverse order is a deadlock waiting for contention and is flagged.

Interprocedural wrinkle: private helpers (``_execute_statement``) are
often called only with a lock already held.  Before judging accesses,
the rule computes an entry held-set for every private method as the
intersection of the held-sets at all of its same-class call sites
(fixpoint, since helpers call helpers), and extends each access's
held-set accordingly.  ``__init__``/``__new__`` are exempt — the object
is not shared until the constructor returns.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.flow import FunctionFlow, shared_marker
from repro.analysis.registry import Rule, register

#: A guard is inferred when at least this many accesses are guarded ...
_MIN_GUARDED_SITES = 2
#: ... and at least this fraction of all accesses are.
_MIN_GUARDED_FRACTION = 0.7

#: Methods whose bodies run before the object escapes its creator.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


@register
class LockDisciplineRule(Rule):
    """Classes that guard an attribute with a lock must do so at every
    access, and every thread must take multiple locks in one global
    order.

    For each class with at least one lock attribute, SGB007 infers a
    guard map: attribute ``A`` is guarded by lock ``L`` when >= 70% of
    ``A``'s accesses (and at least 2) happen while ``L`` is held —
    inside ``with self.L``, after ``self.L.acquire()``, inside a private
    method only ever called with ``L`` held, or downstream of an
    acquiring helper that leaves ``L`` held.  Remaining accesses are
    unguarded reads/writes racing the guarded majority.  For a
    shared/exclusive ``RWLock`` either mode holds ``L`` (``with
    self.L.shared()``, ``acquire_shared()``, any ``with self.L.<mode>()``),
    and a write to a guarded attribute under the shared mode alone is
    flagged: it races the other readers.

    Separately, every ordered pair of locks (``L1`` held while ``L2`` is
    acquired) is collected project-wide; a site acquiring them in the
    reverse order inverts the lock hierarchy and can deadlock.  The
    ``Database`` lock order (statement ``_lock`` before
    ``_metrics_lock``, never the reverse) is the motivating instance.

    Suppress deliberate lock-free fast paths with a justified
    ``# sgblint: disable=SGB007`` pragma on the access line.
    """

    id = "SGB007"
    title = "unguarded access to a lock-guarded attribute"
    caught = (
        "PR 10: four Database methods (table, stream_view_names, "
        "set_trace, explain) read the catalog without the statement "
        "lock; each now takes it"
    )

    def check_project(self, project) -> Iterator[Finding]:
        for cls_qualname in sorted(project.table.classes):
            cls_sym = project.table.classes[cls_qualname]
            if not cls_sym.lock_attrs:
                continue
            flows = project.flows_for_class(cls_qualname)
            if not flows:
                continue
            entry_held = self._entry_held_fixpoint(project, cls_sym, flows)
            accesses = self._effective_accesses(flows, entry_held)
            yield from self._check_guards(cls_sym, accesses)
        yield from self._check_order_inversions(project)

    # -- interprocedural entry held-sets -----------------------------------
    def _entry_held_fixpoint(self, project, cls_sym,
                             flows: List[FunctionFlow],
                             ) -> Dict[str, FrozenSet[str]]:
        """Private method -> locks held at *every* same-class call site.

        Public methods get an empty entry set (external callers hold
        nothing).  Iterates to a fixpoint because a helper's call sites
        may themselves sit inside other helpers whose entry sets are
        still growing.
        """
        graph = project.graph
        flow_by_qualname = {f.sym.qualname: f for f in flows}
        private = {
            q for q, f in flow_by_qualname.items()
            if f.sym.name.startswith("_")
            and f.sym.name not in _CONSTRUCTION_METHODS
            and not f.sym.name.startswith("__")
        }
        entry: Dict[str, FrozenSet[str]] = {
            q: frozenset() for q in flow_by_qualname}
        for _ in range(len(private) + 2):
            changed = False
            for callee in private:
                site_helds: List[FrozenSet[str]] = []
                for caller_q, caller_flow in flow_by_qualname.items():
                    for site in graph.sites(caller_q):
                        if site.callee != callee:
                            continue
                        held = caller_flow.call_sites_held.get(
                            id(site.node), frozenset())
                        site_helds.append(held | entry[caller_q])
                new = (frozenset.intersection(*site_helds)
                       if site_helds else frozenset())
                if new != entry[callee]:
                    entry[callee] = new
                    changed = True
            if not changed:
                break
        return entry

    def _effective_accesses(self, flows: List[FunctionFlow],
                            entry: Dict[str, FrozenSet[str]],
                            ) -> Dict[str, List[Tuple]]:
        """attr -> [(access, effective_held, flow)] excluding
        construction-time accesses."""
        out: Dict[str, List[Tuple]] = {}
        for flow in flows:
            if flow.sym.name in _CONSTRUCTION_METHODS:
                continue
            extra = entry.get(flow.sym.qualname, frozenset())
            for access in flow.attr_accesses:
                held = access.held | extra
                out.setdefault(access.attr, []).append(
                    (access, held, flow))
        return out

    # -- guard inference ---------------------------------------------------
    def _check_guards(self, cls_sym, accesses) -> Iterator[Finding]:
        for attr in sorted(accesses):
            if attr.startswith("__"):
                continue
            entries = accesses[attr]
            total = len(entries)
            if total < _MIN_GUARDED_SITES + 1:
                continue  # too few sites to infer anything
            # Candidate guards: locks held at any access of this attr.
            candidates: Set[str] = set()
            for _, held, _ in entries:
                candidates |= held
            for lock in sorted(candidates):
                if lock not in cls_sym.lock_attrs:
                    continue
                guarded = [e for e in entries if lock in e[1]]
                unguarded = [e for e in entries if lock not in e[1]]
                if len(guarded) < _MIN_GUARDED_SITES:
                    continue
                if len(guarded) / total < _MIN_GUARDED_FRACTION:
                    continue
                for access, _, flow in unguarded:
                    kind = "write to" if access.is_write else "read of"
                    yield self.finding_at(
                        flow.sym.path, access.node,
                        f"unguarded {kind} {cls_sym.name}.{attr} in "
                        f"{flow.sym.name}(): {len(guarded)}/{total} other "
                        f"accesses hold self.{lock} — take the lock or "
                        f"justify with a pragma",
                    )
                for access, held, flow in guarded:
                    if access.is_write and shared_marker(lock) in held:
                        yield self.finding_at(
                            flow.sym.path, access.node,
                            f"write to {cls_sym.name}.{attr} in "
                            f"{flow.sym.name}() under the shared mode of "
                            f"self.{lock} — writers need it exclusive",
                        )
                break  # one inferred guard per attribute is enough

    # -- lock-order inversions ---------------------------------------------
    def _check_order_inversions(self, project) -> Iterator[Finding]:
        # Collect every (outer, inner) acquisition pair per class.
        by_class: Dict[str, Dict[Tuple[str, str], List]] = {}
        for qualname, flow in project.flow.flows.items():
            if flow.sym.cls is None:
                continue
            cls_key = f"{flow.sym.module}.{flow.sym.cls}"
            pairs = by_class.setdefault(cls_key, {})
            for outer, inner, lineno in flow.acquire_order:
                pairs.setdefault((outer, inner), []).append(
                    (flow, lineno))
        for cls_key in sorted(by_class):
            pairs = by_class[cls_key]
            for (outer, inner) in sorted(pairs):
                if (inner, outer) not in pairs:
                    continue
                if outer > inner:
                    continue  # handle each unordered pair once
                fwd, rev = pairs[(outer, inner)], pairs[(inner, outer)]
                # Flag the *minority* direction — the codebase's dominant
                # order is the hierarchy; with a tie, flag both.
                flagged = []
                if len(fwd) >= len(rev):
                    flagged.extend(
                        (flow, lineno, (outer, inner))
                        for flow, lineno in rev)
                if len(rev) >= len(fwd):
                    flagged.extend(
                        (flow, lineno, (inner, outer))
                        for flow, lineno in fwd)
                for flow, lineno, dominant in flagged:
                    node = ast.Module(body=[], type_ignores=[])
                    node.lineno = lineno  # type: ignore[attr-defined]
                    node.col_offset = 0  # type: ignore[attr-defined]
                    yield self.finding_at(
                        flow.sym.path, node,
                        f"lock order inversion in {flow.sym.name}(): "
                        f"acquires self.{dominant[1]} then "
                        f"self.{dominant[0]}, but the established order "
                        f"is {dominant[0]} -> {dominant[1]} — can "
                        f"deadlock under contention",
                    )
