"""Online partition service — a long-lived query layer over the EM machine.

The offline algorithms answer one batch of ranks and exit; this package
keeps the approximate partitioning *alive* and serves traffic against
it:

* :mod:`repro.service.index` — :class:`~repro.service.index.PartitionIndex`,
  an eagerly built approximate-K-partition index answering selection,
  quantile, range-count, and partition-lookup queries with ``O(log K)``
  in-memory comparisons plus at most one partition scan each, and
  taking buffered appends/deletes with local split/merge rebalancing
  and a drift-triggered full rebuild;
* :mod:`repro.service.online` —
  :class:`~repro.service.online.LazyPartitionIndex`, Barbay–Gupta-style
  lazy refinement: the pivot tree grows only where queries land, so
  skewed traces pay far less than building the full index;
* :mod:`repro.service.frontend` —
  :class:`~repro.service.frontend.QueryFrontend`, batching mixed queries
  into one deduplicated multiselection per flush, with per-query
  amortized-I/O metrics;
* :mod:`repro.service.durability` —
  :class:`~repro.service.durability.DurablePartitionIndex`, a
  write-ahead delta log plus periodic metadata snapshots (all charged
  EM I/O), and :func:`~repro.service.durability.recover`, which rebuilds
  an answer-identical index from the manifest after a crash.
"""

from .index import PartitionIndex
from .online import LazyPartitionIndex
from .frontend import Query, QueryFrontend, FlushStats
from .durability import DurablePartitionIndex, DurableStore, recover

__all__ = [
    "PartitionIndex",
    "LazyPartitionIndex",
    "Query",
    "QueryFrontend",
    "FlushStats",
    "DurablePartitionIndex",
    "DurableStore",
    "recover",
]
