"""Scalar SQL function registry.

Functions are NULL-propagating unless noted (``coalesce`` is the
exception).  The registry is keyed by ``(name, arity)`` with ``None`` arity
meaning variadic.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ExecutionError, PlanningError


def _null_prop(fn: Callable[..., Any]) -> Callable[..., Any]:
    def wrapped(*args: Any) -> Any:
        if None in args:
            return None
        return fn(*args)

    return wrapped


def nonzero_divisor(op: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """``op`` with a zero divisor raised as the engine's typed error."""
    def apply(a: Any, b: Any) -> Any:
        if b == 0:
            raise ExecutionError("division by zero")
        return op(a, b)

    return apply


def _coalesce(*args: Any) -> Any:
    for a in args:
        if a is not None:
            return a
    return None


#: Upper bound on one ``sleep()`` evaluation, seconds.
SLEEP_CAP_S = 5.0


def _sleep(seconds: float) -> float:
    import time

    time.sleep(min(max(float(seconds), 0.0), SLEEP_CAP_S))
    return float(seconds)


_FUNCTIONS: Dict[Tuple[str, Optional[int]], Callable[..., Any]] = {
    ("abs", 1): _null_prop(abs),
    ("sqrt", 1): _null_prop(math.sqrt),
    ("floor", 1): _null_prop(lambda x: float(math.floor(x))),
    ("ceil", 1): _null_prop(lambda x: float(math.ceil(x))),
    ("ceiling", 1): _null_prop(lambda x: float(math.ceil(x))),
    ("round", 1): _null_prop(lambda x: float(round(x))),
    ("round", 2): _null_prop(lambda x, n: round(x, int(n))),
    ("power", 2): _null_prop(lambda x, y: x ** y),
    ("mod", 2): _null_prop(nonzero_divisor(operator.mod)),
    ("length", 1): _null_prop(len),
    ("lower", 1): _null_prop(str.lower),
    ("upper", 1): _null_prop(str.upper),
    ("substr", 3): _null_prop(lambda s, start, n: s[int(start) - 1:int(start) - 1 + int(n)]),
    ("year", 1): _null_prop(operator.attrgetter("year")),
    ("month", 1): _null_prop(operator.attrgetter("month")),
    ("day", 1): _null_prop(operator.attrgetter("day")),
    ("coalesce", None): _coalesce,
    # 2-D distance functions — usable anywhere, and the planner recognizes
    # `dist_*(lx, ly, rx, ry) <= eps` join conjuncts and accelerates them
    # with an R-tree similarity join.
    # SQL scalar leaf; hot dist_l2(...) <= eps join conjuncts are rewritten
    # by the planner into the kernel-backed R-tree similarity join.
    ("dist_l2", 4): _null_prop(
        lambda x1, y1, x2, y2: math.hypot(x1 - x2, y1 - y2)
    ),
    ("dist_linf", 4): _null_prop(
        lambda x1, y1, x2, y2: max(abs(x1 - x2), abs(y1 - y2))
    ),
    ("greatest", None): _null_prop(max),
    ("least", None): _null_prop(min),
    # Deliberately slow scalar: sleeps per evaluation (per input row) and
    # returns its argument.  Exists so deadline / cancellation behaviour
    # is testable and benchable from plain SQL — rows reach it in chunks
    # that shrink to one row when rows are this slow, so a cancel token
    # trips within a sleep or two.
    # Capped so a typo cannot wedge a worker for minutes.
    ("sleep", 1): _null_prop(_sleep),
}


def resolve_function(name: str, arity: int) -> Callable[..., Any]:
    name = name.lower()
    impl = _FUNCTIONS.get((name, arity)) or _FUNCTIONS.get((name, None))
    if impl is None:
        known = sorted({n for n, _ in _FUNCTIONS})
        raise PlanningError(
            f"unknown function {name}/{arity}; known functions: {known}"
        )
    return impl


def register_function(name: str, arity: Optional[int],
                      impl: Callable[..., Any]) -> None:
    """Extension hook: register a user-defined scalar function."""
    _FUNCTIONS[(name.lower(), arity)] = impl
