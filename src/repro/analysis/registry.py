"""Rule base class and the global rule registry.

A rule is a class with an ``id`` (``SGBnnn``), a one-line ``title``, a
``caught`` string naming the defect it found in this repo (PR number
and the code fix — a rule without one is not admitted), a docstring
(both rendered by ``--explain``), and a ``check_project(project)``
generator yielding :class:`~repro.analysis.findings.Finding` objects.
Importing :mod:`repro.analysis.rules` registers the built-in rules via
the :func:`register` decorator.
"""

from __future__ import annotations

import ast
import inspect
import re
from typing import Dict, Iterable, Iterator, List, Type

from repro.analysis.findings import Finding

_RULE_ID_RE = re.compile(r"SGB[0-9]{3}\Z")


class Rule:
    """Base class for sgblint rules.  Subclass, set ``id``/``title``/
    ``caught``, implement :meth:`check_project`, and decorate with
    :func:`register`.

    Every rule is a whole-program rule: :meth:`check_project` runs once
    per invocation against a :class:`~repro.analysis.project.Project`,
    and the runner applies pragma suppression using the context of each
    finding's file.
    """

    id: str = "SGB000"
    title: str = ""
    #: The true positive that admits the rule: which PR ran it and what
    #: code was fixed because of its finding.  A pragma is not one.
    caught: str = ""

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover - makes every override a generator

    # -- helpers for subclasses -------------------------------------------
    def finding_at(self, path: str, node: ast.AST,
                   message: str) -> Finding:
        return Finding(
            self.id, path,
            getattr(node, "lineno", 0), getattr(node, "col_offset", 0),
            message,
        )

    @classmethod
    def explanation(cls) -> str:
        """The rule's rendered ``--explain`` text (its docstring)."""
        doc = inspect.getdoc(cls) or cls.title or "(no documentation)"
        return doc

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.id}: {self.title}>"


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    if not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} does not match SGBnnn")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Registered rules, ordered by id (imports them on first use)."""
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown rule {rule_id!r}; known rules: {known}"
        ) from None


def rule_ids() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def _ensure_loaded() -> None:
    # Deferred so `import repro.analysis.registry` alone cannot recurse
    # through the rule modules (which import this module for @register).
    if not _REGISTRY:
        from repro.analysis import rules  # noqa: F401


def run_project_rules(project, rules: Iterable[Rule] = ()) -> List[Finding]:
    """Run ``rules`` (default: all registered) once over a built Project,
    honouring the per-line pragmas of whichever file each finding lands
    in."""
    out: List[Finding] = []
    for rule in list(rules) or all_rules():
        for f in rule.check_project(project):
            if not project.is_disabled(f.path, f.line, f.rule):
                out.append(f)
    return out
