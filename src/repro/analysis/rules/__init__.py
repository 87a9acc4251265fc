"""Built-in sgblint rules.  Importing this package registers them all."""

from __future__ import annotations

from repro.analysis.rules import error_taxonomy  # noqa: F401  (import = register)

__all__ = ["error_taxonomy"]
