"""repro — Similarity Group-By operators for multi-dimensional relational data.

A from-scratch reproduction of the SGB-All / SGB-Any operators (Tang et al.)
including the relational-engine substrate they are integrated into:

* :func:`repro.sgb_all` / :func:`repro.sgb_any` — array-level operators;
* :func:`repro.sgb_stream` / :mod:`repro.streaming` — incremental SGB
  streams: a micro-batching handle over an incremental operator, with
  batch-equivalent snapshots;
* :class:`repro.Database` — an embeddable relational engine whose SQL
  dialect includes the paper's ``DISTANCE-TO-ALL`` / ``DISTANCE-TO-ANY``
  GROUP BY extension;
* :mod:`repro.clustering` — K-means, DBSCAN and BIRCH baselines;
* :mod:`repro.workloads` — TPC-H-like and social-check-in data generators;
* :mod:`repro.bench` — the harness that regenerates every table and figure
  of the paper's evaluation.
"""

from repro.core import (
    ELIMINATED,
    L1,
    L2,
    LINF,
    GroupingResult,
    Metric,
    SGBAllOperator,
    SGBAnyOperator,
    SimilarityPredicate,
    resolve_metric,
    sgb_all,
    sgb_any,
    sgb_around,
    sgb_around_nd,
    sgb_segment,
    sgb_stream,
)
from repro.engine.database import Database
from repro.streaming import (
    MicroBatcher,
    StreamingGroupView,
    StreamStats,
)

__version__ = "1.0.0"

__all__ = [
    "sgb_all",
    "sgb_any",
    "sgb_stream",
    "sgb_segment",
    "sgb_around",
    "sgb_around_nd",
    "SGBAllOperator",
    "SGBAnyOperator",
    "GroupingResult",
    "ELIMINATED",
    "SimilarityPredicate",
    "Metric",
    "resolve_metric",
    "L1",
    "L2",
    "LINF",
    "Database",
    "MicroBatcher",
    "StreamingGroupView",
    "StreamStats",
    "__version__",
]
