"""Batched query frontend: coalesce, deduplicate, answer, account.

:class:`QueryFrontend` sits between clients and an engine (either
:class:`~repro.service.index.PartitionIndex` or
:class:`~repro.service.online.LazyPartitionIndex` — anything with
``n_live`` / ``batch_select`` / ``range_count`` / ``partition_of``).
Clients :meth:`~QueryFrontend.submit` mixed queries; :meth:`flush`
answers the whole queue at once:

* every ``select`` and ``quantile`` in the batch collapses into **one**
  multiselection call (quantiles are translated to ranks first, then
  the engine deduplicates ranks), so ten clients asking for the median
  cost one partition load, not ten;
* ``range_count`` / ``partition_of`` queries run individually (they are
  already cheap);
* each flush is measured through :meth:`Machine.measure`, and the
  frontend accumulates per-query amortized I/O — the service's headline
  metric — exposed by :meth:`summary` and recorded per flush in
  :attr:`flushes`.

Under a :class:`repro.obs.tracer.Tracer` every flush appears as a
``svc-flush`` span whose children are the engine's phases
(``svc-refine``, ``svc-leaf``, ``svc-range``, ...), so a Perfetto
timeline shows exactly where each batch's I/O went.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..em.errors import SpecError
from ..apps.order_stats import rank_of_fraction
from ..obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["Query", "QueryFrontend", "FlushStats"]

_KINDS = ("select", "quantile", "range_count", "partition_of")


@dataclass(frozen=True)
class Query:
    """One client query; build via the per-kind constructors.

    Wire-format tuples (as produced by
    :func:`repro.workloads.queries.mixed_query_trace`) are accepted
    anywhere a ``Query`` is: ``("select", rank)``, ``("quantile", q)``,
    ``("range_count", lo, hi)``, ``("partition_of", key)``.
    """

    kind: str
    rank: int | None = None
    q: float | None = None
    lo: int | None = None
    hi: int | None = None
    key: int | None = None

    @classmethod
    def select(cls, rank: int) -> "Query":
        return cls(kind="select", rank=int(rank))

    @classmethod
    def quantile(cls, q: float) -> "Query":
        return cls(kind="quantile", q=float(q))

    @classmethod
    def range_count(cls, lo: int, hi: int) -> "Query":
        return cls(kind="range_count", lo=int(lo), hi=int(hi))

    @classmethod
    def partition_of(cls, key: int) -> "Query":
        return cls(kind="partition_of", key=int(key))

    @classmethod
    def coerce(cls, obj) -> "Query":
        """Accept a ``Query``, or a wire tuple ``(kind, *args)``."""
        if isinstance(obj, cls):
            return obj
        kind, *args = obj
        if kind not in _KINDS:
            raise SpecError(f"unknown query kind {kind!r}")
        return getattr(cls, kind)(*args)


@dataclass(frozen=True)
class FlushStats:
    """Measured cost of one frontend flush."""

    queries: int
    select_ranks: int
    distinct_ranks: int
    io: int
    comparisons: int

    @property
    def amortized_io(self) -> float:
        """I/Os per query in this flush."""
        return self.io / self.queries if self.queries else 0.0


class QueryFrontend:
    """Batching frontend over a partition-service engine."""

    def __init__(self, machine: "Machine", engine) -> None:
        self._machine = machine
        self.engine = engine
        self._queue: list[Query] = []
        self.flushes: list[FlushStats] = []
        self.total_queries = 0
        self.total_io = 0
        self.total_comparisons = 0
        # Telemetry: share the engine's registry when it has one so the
        # whole service stack exports together, flight events included;
        # ambient fallback covers engines built outside a metrics scope.
        metrics = getattr(engine, "_metrics", None) or current_registry()
        self._recorder = metrics.flight
        self._m_queries = metrics.counter(
            "svc_queries", "queries answered by kind", labels=("kind",)
        )
        self._m_flush_io = metrics.histogram(
            "svc_flush_io",
            "simulated I/O per flush by kind",
            labels=("kind",),
        ).labels(kind="query")
        self._m_amortized = metrics.histogram(
            "svc_query_amortized_io",
            "per-query amortized simulated I/O (per flush)",
        )
        self._m_select_ranks = metrics.counter(
            "svc_select_ranks", "select/quantile ranks submitted"
        )
        self._m_distinct = metrics.counter(
            "svc_distinct_ranks", "distinct ranks after flush deduplication"
        )
        self._m_coalesce = metrics.gauge(
            "svc_coalescing_ratio",
            "distinct/submitted rank ratio of the last flush (lower = "
            "more coalescing)",
        )

    # ------------------------------------------------------------------
    def submit(self, query) -> int:
        """Queue one query (a :class:`Query` or a wire tuple); returns
        its position in the next :meth:`flush`'s answer list."""
        self._queue.append(Query.coerce(query))
        return len(self._queue) - 1

    def select(self, rank: int) -> int:
        return self.submit(Query.select(rank))

    def quantile(self, q: float) -> int:
        return self.submit(Query.quantile(q))

    def range_count(self, lo: int, hi: int) -> int:
        return self.submit(Query.range_count(lo, hi))

    def partition_of(self, key: int) -> int:
        return self.submit(Query.partition_of(key))

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def queued(self) -> list[Query]:
        """Snapshot of the not-yet-flushed queue, in submit order."""
        return list(self._queue)

    # ------------------------------------------------------------------
    def flush(self) -> list:
        """Answer every queued query; returns answers in submit order.

        ``select``/``quantile`` answers are records; ``range_count`` and
        ``partition_of`` answers are ints.
        """
        queue, self._queue = self._queue, []
        if not queue:
            return []
        machine = self._machine
        engine = self.engine
        answers: list = [None] * len(queue)
        with machine.measure("svc-flush") as cost:
            n = engine.n_live
            rank_positions: list[int] = []
            ranks: list[int] = []
            for pos, query in enumerate(queue):
                if query.kind == "select":
                    rank_positions.append(pos)
                    ranks.append(query.rank)
                elif query.kind == "quantile":
                    if n == 0:
                        raise SpecError("quantile of an empty index")
                    rank_positions.append(pos)
                    ranks.append(rank_of_fraction(n, query.q))
                elif query.kind == "range_count":
                    answers[pos] = engine.range_count(query.lo, query.hi)
                else:
                    answers[pos] = engine.partition_of(query.key)
            if ranks:
                rank_arr = np.array(ranks, dtype=np.int64)
                records = engine.batch_select(rank_arr)
                for pos, rec in zip(rank_positions, records):
                    answers[pos] = rec
        stats = FlushStats(
            queries=len(queue),
            select_ranks=len(ranks),
            distinct_ranks=int(len(np.unique(ranks))) if ranks else 0,
            io=cost.total,
            comparisons=cost.comparisons,
        )
        self.flushes.append(stats)
        self.total_queries += stats.queries
        self.total_io += stats.io
        self.total_comparisons += stats.comparisons
        for query in queue:
            self._m_queries.labels(kind=query.kind).inc()
        self._m_flush_io.observe(stats.io)
        self._m_amortized.observe(stats.amortized_io, count=stats.queries)
        self._m_select_ranks.inc(stats.select_ranks)
        self._m_distinct.inc(stats.distinct_ranks)
        if stats.select_ranks:
            self._m_coalesce.set(stats.distinct_ranks / stats.select_ranks)
        self._recorder.record(
            "query-flush", queries=stats.queries, io=stats.io
        )
        return answers

    def run(self, queries, batch: int = 64) -> list:
        """Submit and flush ``queries`` in batches of ``batch``;
        returns all answers in input order."""
        if batch < 1:
            raise SpecError("batch must be >= 1")
        answers: list = []
        for query in queries:
            self.submit(query)
            if self.pending >= batch:
                answers.extend(self.flush())
        answers.extend(self.flush())
        return answers

    # ------------------------------------------------------------------
    @property
    def amortized_io(self) -> float:
        """I/Os per query over the frontend's whole life."""
        return self.total_io / self.total_queries if self.total_queries else 0.0

    def summary(self) -> dict:
        """Aggregate metrics (plus engine stats when it has any)."""
        out = {
            "queries": self.total_queries,
            "flushes": len(self.flushes),
            "io": self.total_io,
            "comparisons": self.total_comparisons,
            "amortized_io": self.amortized_io,
        }
        stats = getattr(self.engine, "stats", None)
        if stats:
            out["engine"] = dict(stats)
        return out
