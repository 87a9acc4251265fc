"""Baseline file support: grandfathered findings that do not gate.

The baseline is a checked-in JSON file mapping finding identities
``(rule, path, message)`` to an allowed count plus a human-written
justification.  Line numbers deliberately do not participate in the
identity — moving a justified statement around a file must not resurrect
its finding — but *adding a second instance* of the same violation in the
same file does gate, because the allowed count is exceeded.

Workflow:

* ``python -m repro.analysis --update-baseline src tests`` records the
  current findings (carrying over justifications for entries that
  persist, stamping ``TODO: justify`` on new ones — CI rejects TODOs);
* a later run loads the file automatically (or via ``--baseline PATH``)
  and reports only non-baselined findings;
* entries whose finding disappeared are *stale*; runs report them so the
  file shrinks over time instead of fossilizing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.findings import Finding

#: Default file name, resolved relative to the working directory.
DEFAULT_BASELINE_NAME = "sgblint.baseline.json"

#: Justification placeholder written by ``--update-baseline``.
TODO_JUSTIFICATION = "TODO: justify"

Key = Tuple[str, str, str]


def _file_hash(path: str) -> Optional[str]:
    """sha256 of the file's text; None when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return hashlib.sha256(fh.read().encode("utf-8")).hexdigest()
    except OSError:
        return None


class BaselineEntry:
    __slots__ = ("rule", "path", "message", "count", "justification",
                 "content_hash")

    def __init__(self, rule: str, path: str, message: str,
                 count: int = 1,
                 justification: str = TODO_JUSTIFICATION,
                 content_hash: Optional[str] = None):
        self.rule = rule
        self.path = path
        self.message = message
        self.count = count
        self.justification = justification
        #: sha256 of the file's content when the entry was (re)verified
        #: via ``--update-baseline``.  ``--strict-baseline`` fails when
        #: the file has since changed, even if the finding still matches
        #: — the justification was written about different code and must
        #: be re-confirmed.
        self.content_hash = content_hash

    @property
    def key(self) -> Key:
        return (self.rule, self.path, self.message)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "message": self.message,
            "count": self.count,
            "justification": self.justification,
        }
        if self.content_hash is not None:
            out["content_hash"] = self.content_hash
        return out


class Baseline:
    """A set of grandfathered findings with per-identity allowed counts."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()):
        self.entries: Dict[Key, BaselineEntry] = {}
        for e in entries:
            existing = self.entries.get(e.key)
            if existing is not None:
                existing.count += e.count
            else:
                self.entries[e.key] = e

    # -- persistence -------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        entries = [
            BaselineEntry(
                d["rule"], d["path"], d["message"],
                int(d.get("count", 1)),
                d.get("justification", TODO_JUSTIFICATION),
                d.get("content_hash"),
            )
            for d in payload.get("entries", [])
        ]
        return cls(entries)

    def save(self, path: str) -> None:
        payload = {
            "version": 1,
            "tool": "sgblint",
            "entries": [
                e.as_dict()
                for e in sorted(
                    self.entries.values(),
                    key=lambda e: (e.path, e.rule, e.message),
                )
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")

    # -- filtering ---------------------------------------------------------
    def apply(
        self, findings: Iterable[Finding]
    ) -> Tuple[List[Finding], int, List[BaselineEntry]]:
        """Split findings into (new, n_suppressed, stale_entries).

        Each baselined identity absorbs up to ``count`` matching
        findings; the rest pass through.  Entries that matched nothing
        are returned as stale so callers can prompt a cleanup.
        """
        remaining = {k: e.count for k, e in self.entries.items()}
        new: List[Finding] = []
        suppressed = 0
        for f in findings:
            if remaining.get(f.key, 0) > 0:
                remaining[f.key] -= 1
                suppressed += 1
            else:
                new.append(f)
        stale = [
            self.entries[k]
            for k, count in remaining.items()
            if count == self.entries[k].count
        ]
        return new, suppressed, stale

    def unjustified(self) -> List[BaselineEntry]:
        return [
            e for e in self.entries.values()
            if e.justification.strip() in ("", TODO_JUSTIFICATION)
        ]

    def hash_mismatches(self) -> List[BaselineEntry]:
        """Entries whose file content changed since the hash was stamped.

        True stale detection: a justification written against code that
        has since been edited may no longer describe reality even when
        the finding identity still matches.  Entries without a stored
        hash (pre-hash baselines) are skipped, not failed — running
        ``--update-baseline`` once stamps them.
        """
        out: List[BaselineEntry] = []
        for entry in self.entries.values():
            if entry.content_hash is None:
                continue
            current = _file_hash(entry.path)
            if current != entry.content_hash:
                out.append(entry)
        return out

    # -- construction from findings ---------------------------------------
    @classmethod
    def from_findings(cls, findings: Iterable[Finding],
                      previous: Optional["Baseline"] = None) -> "Baseline":
        """A baseline covering exactly ``findings``; justifications are
        carried over from ``previous`` where the identity persists."""
        counts: Dict[Key, int] = {}
        for f in findings:
            counts[f.key] = counts.get(f.key, 0) + 1
        hashes: Dict[str, Optional[str]] = {}
        entries = []
        for (rule, path, message), count in counts.items():
            justification = TODO_JUSTIFICATION
            if previous is not None:
                old = previous.entries.get((rule, path, message))
                if old is not None:
                    justification = old.justification
            if path not in hashes:
                hashes[path] = _file_hash(path)
            # Updating the baseline *is* the re-verification step, so
            # the hash is always refreshed to the current content.
            entries.append(
                BaselineEntry(rule, path, message, count, justification,
                              hashes[path])
            )
        return cls(entries)

    def __len__(self) -> int:
        return sum(e.count for e in self.entries.values())

    def __repr__(self) -> str:
        return f"Baseline({len(self.entries)} identities, {len(self)} findings)"
