"""Wire format: JSON-lines framing plus value (de)serialization.

One message per ``\\n``-terminated line, UTF-8 JSON.  Encoding is
deterministic — keys sorted, compact separators, ``allow_nan=False`` —
so identical results serialize to identical bytes (responses are
byte-comparable in tests and cache-friendly).

JSON has no NaN/±inf, no dates, and no tuples, so result values use a
small tagged encoding:

========================  =======================================
value                     encoding
========================  =======================================
``float('nan')``          ``{"$f": "nan"}``
``float('inf')``          ``{"$f": "inf"}`` / ``{"$f": "-inf"}``
``datetime.date``         ``{"$d": "2009-03-29"}``
row (tuple)               JSON array; decoded back to a tuple
nested list               JSON array; decoded back to a list
int/float/str/bool/None   native JSON
other ``numbers.Real``    as the builtin ``int`` / ``float`` it equals
(numpy scalars)           (``np.bool_`` as ``bool``)
========================  =======================================

The module doubles as the repo's *shared* result-serialization helper:
:func:`encode_result` / :func:`decode_result` round-trip
:class:`~repro.engine.database.QueryResult` and
:class:`~repro.engine.database.StatementResult`, and
:func:`render_value` is the single human-readable value formatter (the
SQL shell uses it for its tables, the client CLI for remote ones), so
local and remote output cannot drift.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import numbers
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.engine.database import QueryResult, StatementResult
from repro.errors import ServiceError

#: Wire protocol revision, sent in the server hello.
PROTOCOL_VERSION = 1

#: Longest accepted message line, bytes (also the StreamReader limit).
MAX_LINE_BYTES = 1 << 20


# ----------------------------------------------------------------------
# values
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """JSON-safe encoding of one result cell (see the module table)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return {"$f": "nan"}
        if math.isinf(value):
            return {"$f": "inf" if value > 0 else "-inf"}
        return value if type(value) is float else float(value)
    if isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, _dt.date):
        return {"$d": value.isoformat()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    # Numeric-tower values that are not the builtin types (numpy scalars
    # out of a vectorized kernel): a correct answer must not turn into a
    # failed request at the last step.
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return encode_value(float(value))
    if getattr(getattr(value, "dtype", None), "kind", "") == "b" \
            and getattr(value, "shape", None) == ():
        return bool(value)  # np.bool_ sits outside the numeric tower
    raise ServiceError(
        f"value of type {type(value).__name__} is not wire-serializable"
    )


_SPECIAL_FLOATS = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (inner sequences come back as
    lists; row tuples are restored by :func:`decode_rows`)."""
    if isinstance(value, dict):
        if "$f" in value:
            try:
                return _SPECIAL_FLOATS[value["$f"]]
            except KeyError:
                raise ServiceError(
                    f"unknown float tag {value['$f']!r}"
                ) from None
        if "$d" in value:
            return _dt.date.fromisoformat(value["$d"])
        raise ServiceError(f"unknown tagged value {sorted(value)!r}")
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def encode_rows(rows: Sequence[tuple]) -> List[List[Any]]:
    return [[encode_value(v) for v in row] for row in rows]


def decode_rows(data: Sequence[Sequence[Any]]) -> List[tuple]:
    return [tuple(decode_value(v) for v in row) for row in data]


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
def encode_result(
    result: Union[QueryResult, StatementResult, None]
) -> Dict[str, Any]:
    """Tagged wire form of an engine execution result."""
    if isinstance(result, QueryResult):
        return {
            "kind": "rows",
            "columns": list(result.columns),
            "rows": encode_rows(result.rows),
        }
    if isinstance(result, StatementResult):
        return {"kind": "status", "status": result.status}
    if result is None:  # e.g. an empty statement batch
        return {"kind": "status", "status": "OK"}
    raise ServiceError(
        f"cannot serialize result of type {type(result).__name__}"
    )


def decode_result(
    data: Dict[str, Any]
) -> Union[QueryResult, StatementResult]:
    kind = data.get("kind")
    if kind == "rows":
        return QueryResult(list(data["columns"]), decode_rows(data["rows"]))
    if kind == "status":
        return StatementResult(data["status"])
    raise ServiceError(f"unknown result kind {kind!r}")


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
def error_payload(exc: BaseException) -> Dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


def raise_error(payload: Dict[str, str]) -> None:
    """Re-raise a wire error as its typed exception.

    Error types are resolved against :mod:`repro.errors` (only
    :class:`~repro.errors.ReproError` subclasses are eligible — the type
    name is attacker-controlled input); anything unknown degrades to a
    :class:`~repro.errors.ServiceError` that still carries the original
    type name.
    """
    from repro import errors as _errors
    from repro.errors import ReproError

    name = str(payload.get("type", "ServiceError"))
    message = str(payload.get("message", ""))
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        raise cls(message)
    raise ServiceError(f"{name}: {message}")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def dumps(message: Dict[str, Any]) -> bytes:
    """One message as a complete wire line (deterministic bytes)."""
    return (
        json.dumps(
            message, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        + "\n"
    ).encode("utf-8")


def loads(line: Union[bytes, str]) -> Dict[str, Any]:
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ServiceError(f"malformed wire message: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"wire message must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# human-readable rendering (shared by the shell and the client CLI)
# ----------------------------------------------------------------------
def render_value(value: Any) -> str:
    """Display form of one result cell.

    NULL renders as ``NULL``, floats in ``%g`` form (``nan``/``inf``
    spelled out as ``NaN``/``Infinity`` so they cannot be mistaken for
    column text), lists in ``{a,b}`` braces like arrays.
    """
    if value is None:
        return "NULL"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return f"{value:g}"
    if isinstance(value, (list, tuple)):
        return "{" + ",".join(render_value(v) for v in value) + "}"
    return str(value)
