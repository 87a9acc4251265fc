"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch the whole family with one ``except`` clause while still being able to
distinguish SQL-front-end problems from operator misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(ReproError, ValueError):
    """An operator or function received an out-of-domain argument."""


class DimensionMismatchError(InvalidParameterError):
    """Points of different dimensionality were mixed in one operation."""


class InvalidCoordinateError(InvalidParameterError):
    """A point contains a NaN or infinite coordinate.

    Raised by the validating entry points before the value can reach an
    index structure (NaN compares false with everything, so letting one in
    silently corrupts grid cells and R-tree rectangles).
    """


class StreamStateError(ReproError):
    """A streaming engine was used after being closed by ``result()``."""


class SQLError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SQLError):
    """The SQL text contains characters that cannot be tokenized."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class ParseError(SQLError):
    """The token stream does not form a valid statement."""


class PlanningError(SQLError):
    """The statement parsed but cannot be turned into an executable plan."""


class CatalogError(ReproError):
    """A table or column reference could not be resolved in the catalog."""


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class ServiceError(ReproError):
    """Base class for query-service errors (see :mod:`repro.service`)."""


class ServiceOverloadedError(ServiceError):
    """The service shed load: admission queue full or connection cap hit.

    Clients receive this as a typed wire error and are expected to back
    off and retry; nothing about the rejected request was executed.
    """


class QueryCancelledError(ServiceError):
    """A query was cancelled by the client before it finished.

    Raised from :meth:`repro.core.cancel.CancelToken.check` at the
    executor's next checkpoint after
    :meth:`~repro.core.cancel.CancelToken.cancel`.
    """


class QueryTimeoutError(ServiceError):
    """A query exceeded its deadline.

    Raised cooperatively from :meth:`repro.core.cancel.CancelToken.check`
    — the executing thread notices at the executor's next checkpoint, so
    partially produced state is unwound through the normal exception path.
    """
