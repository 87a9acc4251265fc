"""Built-in sgblint rules.  Importing this package registers them all."""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401  (import = register)
    blocking_async,
    cancel_coverage,
    error_taxonomy,
    lock_discipline,
)

__all__ = [
    "error_taxonomy",
    "lock_discipline",
    "blocking_async",
    "cancel_coverage",
]
