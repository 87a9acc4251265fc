"""Physical operators (Volcano iterators)."""

from repro.engine.executor.aggregate import HashAggregate
from repro.engine.executor.base import PhysicalOperator
from repro.engine.executor.relational import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
)
from repro.engine.executor.scans import SeqScan, SubqueryScan, ValuesScan
from repro.engine.executor.sgb import SGB1DAggregate, SGBAggregate, SGBConfig

__all__ = [
    "PhysicalOperator",
    "SeqScan",
    "SubqueryScan",
    "ValuesScan",
    "Filter",
    "Project",
    "NestedLoopJoin",
    "HashJoin",
    "Sort",
    "Limit",
    "Distinct",
    "HashAggregate",
    "SGBAggregate",
    "SGB1DAggregate",
    "SGBConfig",
]
