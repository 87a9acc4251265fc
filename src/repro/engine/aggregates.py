"""Aggregate function implementations for the aggregation operators.

Each aggregate is an accumulator factory with the classic
``init`` / ``step`` / ``final`` protocol (Gray et al.'s Init/Iter/Final).
The aggregation nodes hand each group's argument columns to
``step_many``, whose default is the ``step`` loop; ``count``, ``sum``,
``avg``, ``min`` and ``max`` override it with a C-level pass that gives
the loop's result bit for bit.  The registry
includes the paper's user-defined aggregates: ``array_agg``/``list_id``
(collect values) and ``st_polygon`` (enclosing polygon of the group's
2-D grouping attributes — Section 5 queries).
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, repeat
from operator import add, is_not
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import PlanningError
from repro.geometry.polygon import Polygon


class Accumulator:
    """One aggregate's running state for one group."""

    def step(self, args: Tuple[Any, ...]) -> None:
        raise NotImplementedError

    def step_many(self, n: int, columns: Sequence[Sequence[Any]]) -> None:
        """Step ``n`` rows given as one column per argument.

        The default is :meth:`step` per row, in row order, so a column
        fold is bit-identical to a row fold (float sums keep their
        left-to-right order).
        """
        step = self.step
        if columns:
            for args in zip(*columns):
                step(args)
        else:
            for _ in range(n):
                step(())

    def final(self) -> Any:
        raise NotImplementedError


class _Count(Accumulator):
    def __init__(self) -> None:
        self.n = 0

    def step(self, args: Tuple[Any, ...]) -> None:
        if not args or args[0] is not None:
            self.n += 1

    def step_many(self, n: int, columns: Sequence[Sequence[Any]]) -> None:
        # COUNT(*) is the group size; COUNT(x) its non-NULL values.
        self.n += sum(map(is_not, columns[0], repeat(None))) if columns else n

    def final(self) -> Any:
        return self.n


def _non_null(column: Sequence[Any]) -> List[Any]:
    return [v for v in column if v is not None]


# The step_many overrides below add and compare in row order, as the step
# loop does: builtin sum() is not used, since from Python 3.12 it
# compensates float sums and so changes their bits.


class _Sum(Accumulator):
    def __init__(self) -> None:
        self.total: Any = None

    def step(self, args: Tuple[Any, ...]) -> None:
        v = args[0]
        if v is None:
            return
        self.total = v if self.total is None else self.total + v

    def step_many(self, n: int, columns: Sequence[Sequence[Any]]) -> None:
        values = _non_null(columns[0])
        if values:
            self.total = (reduce(add, values) if self.total is None
                          else reduce(add, values, self.total))

    def final(self) -> Any:
        return self.total


class _Avg(Accumulator):
    def __init__(self) -> None:
        self.total = 0.0
        self.n = 0

    def step(self, args: Tuple[Any, ...]) -> None:
        v = args[0]
        if v is None:
            return
        self.total += v
        self.n += 1

    def step_many(self, n: int, columns: Sequence[Sequence[Any]]) -> None:
        values = _non_null(columns[0])
        self.total = reduce(add, values, self.total)
        self.n += len(values)

    def final(self) -> Any:
        return self.total / self.n if self.n else None


class _Min(Accumulator):
    def __init__(self) -> None:
        self.value: Any = None

    def step(self, args: Tuple[Any, ...]) -> None:
        v = args[0]
        if v is None:
            return
        if self.value is None or v < self.value:
            self.value = v

    def step_many(self, n: int, columns: Sequence[Sequence[Any]]) -> None:
        values = _non_null(columns[0])
        if values:
            self.value = min(values if self.value is None
                             else chain((self.value,), values))

    def final(self) -> Any:
        return self.value


class _Max(Accumulator):
    def __init__(self) -> None:
        self.value: Any = None

    def step(self, args: Tuple[Any, ...]) -> None:
        v = args[0]
        if v is None:
            return
        if self.value is None or v > self.value:
            self.value = v

    def step_many(self, n: int, columns: Sequence[Sequence[Any]]) -> None:
        values = _non_null(columns[0])
        if values:
            self.value = max(values if self.value is None
                             else chain((self.value,), values))

    def final(self) -> Any:
        return self.value


class _ArrayAgg(Accumulator):
    def __init__(self) -> None:
        self.values: List[Any] = []

    def step(self, args: Tuple[Any, ...]) -> None:
        self.values.append(args[0])

    def final(self) -> Any:
        return self.values


class _StPolygon(Accumulator):
    """``ST_Polygon(x, y)`` — convex polygon enclosing the group's points."""

    def __init__(self) -> None:
        self.points: List[Tuple[float, float]] = []

    def step(self, args: Tuple[Any, ...]) -> None:
        x, y = args
        if x is None or y is None:
            return
        self.points.append((float(x), float(y)))

    def final(self) -> Any:
        return Polygon.enclosing(self.points) if self.points else None


class _Variance(Accumulator):
    """Welford's online variance; ``sample=True`` for the n-1 denominator."""

    def __init__(self, sample: bool, sqrt: bool):
        self.sample = sample
        self.sqrt = sqrt
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def step(self, args: Tuple[Any, ...]) -> None:
        v = args[0]
        if v is None:
            return
        self.n += 1
        delta = v - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (v - self.mean)

    def final(self) -> Any:
        denom = self.n - 1 if self.sample else self.n
        if denom <= 0:
            return None
        value = self.m2 / denom
        if self.sqrt:
            value = value ** 0.5
        return value


def _stddev() -> Accumulator:
    return _Variance(sample=True, sqrt=True)


def _stddev_pop() -> Accumulator:
    return _Variance(sample=False, sqrt=True)


def _variance() -> Accumulator:
    return _Variance(sample=True, sqrt=False)


def _var_pop() -> Accumulator:
    return _Variance(sample=False, sqrt=False)


class _Median(Accumulator):
    def __init__(self) -> None:
        self.values: List[Any] = []

    def step(self, args: Tuple[Any, ...]) -> None:
        if args[0] is not None:
            self.values.append(args[0])

    def final(self) -> Any:
        if not self.values:
            return None
        ordered = sorted(self.values)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0


class _StringAgg(Accumulator):
    """``string_agg(value, separator)`` — separator must be constant per
    group (SQL requires a constant there anyway)."""

    def __init__(self) -> None:
        self.parts: List[str] = []
        self.sep: Any = None

    def step(self, args: Tuple[Any, ...]) -> None:
        value, sep = args
        if sep is not None:
            self.sep = sep
        if value is not None:
            self.parts.append(str(value))

    def final(self) -> Any:
        if not self.parts:
            return None
        return (self.sep or "").join(self.parts)


class _DistinctWrapper(Accumulator):
    def __init__(self, inner: Accumulator):
        self.inner = inner
        self.seen: set = set()

    def step(self, args: Tuple[Any, ...]) -> None:
        if args in self.seen:
            return
        self.seen.add(args)
        self.inner.step(args)

    def final(self) -> Any:
        return self.inner.final()


_AGGREGATES: dict = {
    "count": (_Count, (0, 1)),
    "sum": (_Sum, (1,)),
    "avg": (_Avg, (1,)),
    "average": (_Avg, (1,)),
    "min": (_Min, (1,)),
    "max": (_Max, (1,)),
    "array_agg": (_ArrayAgg, (1,)),
    "list_id": (_ArrayAgg, (1,)),  # the paper's List-ID UDA
    "st_polygon": (_StPolygon, (2,)),
    "stddev": (_stddev, (1,)),
    "stddev_samp": (_stddev, (1,)),
    "stddev_pop": (_stddev_pop, (1,)),
    "variance": (_variance, (1,)),
    "var_samp": (_variance, (1,)),
    "var_pop": (_var_pop, (1,)),
    "median": (_Median, (1,)),
    "string_agg": (_StringAgg, (2,)),
}


def is_aggregate_name(name: str) -> bool:
    return name.lower() in _AGGREGATES


def accumulator_factory(name: str, n_args: int,
                        distinct: bool = False) -> Callable[[], Accumulator]:
    """A no-argument constructor of ``name``'s accumulator, checked once:
    an unknown name or a wrong arity is a :class:`PlanningError`."""
    name = name.lower()
    try:
        cls, arities = _AGGREGATES[name]
    except KeyError:
        raise PlanningError(f"unknown aggregate {name!r}") from None
    if n_args not in arities:
        raise PlanningError(
            f"aggregate {name} takes {arities} argument(s), got {n_args}"
        )
    if distinct:
        return lambda: _DistinctWrapper(cls())
    return cls


def make_accumulator(name: str, n_args: int, distinct: bool = False) -> Accumulator:
    return accumulator_factory(name, n_args, distinct)()
