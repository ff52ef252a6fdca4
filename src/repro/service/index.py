"""Eager partition index: approximate K-splitters kept live for queries.

:class:`PartitionIndex` materializes an approximate K-partitioning of an
:class:`~repro.em.file.EMFile` once (two-sided window ``[a, b]`` with
``b/a = (1+slack)²``), then serves:

* ``select(rank)`` / ``batch_select(ranks)`` / ``quantile(q)`` — the
  record(s) at given rank(s): ``O(log K)`` comparisons to locate the
  partition, then one partition load (``O(b/B)`` I/Os) shared by every
  rank landing in it;
* ``range_count(lo, hi)`` — elements with key in ``(lo, hi]``: interior
  partitions are counted from live sizes for free, at most one partition
  scan per endpoint;
* ``partition_of(key)`` — pure in-memory binary search.

The resident control state (splitter composites, partition sizes,
tombstones, pending updates) is held under a machine memory lease, so
the simulator's budget accounting covers the service like any other
algorithm.

**Write path.**  :meth:`~PartitionIndex.append` and
:meth:`~PartitionIndex.delete` buffer operations in memory; the buffer
flushes once it holds ``max(B, M/8)`` of them, on
:meth:`~PartitionIndex.flush_updates`, and before any query, so every
answer reflects every prior update.  A flush applies the buffer with the
same loop a WAL replay (:func:`repro.service.durability.recover`) runs:

* operations are applied **in submission order** — runs of consecutive
  appends coalesce into one routed batch, but a delete submitted before
  an append never sees the appended record;
* **appends** are routed by one batched binary search over the splitter
  composites and written as new *overflow segments* of their target
  partitions — ``O(#touched + |batch|/B)`` write I/Os, no rewriting;
* **deletes** resolve the victim record by scanning the (at most two,
  for duplicate boundary keys) candidate partitions and tombstone its
  composite — the record dies logically at once and physically at the
  partition's next compaction.  A flush names the victim by key (the
  first live element with it), a replay by ``(key, uid)``;
* after a batch, every touched partition that drifted outside the
  ``[a, b]`` window is **locally** split (via in-memory splitters when
  it fits, external multi-partition otherwise) or merged with a
  neighbour (pure metadata);
* cumulative drift — updates applied since the last full build — above
  ``rebuild_threshold · N₀`` triggers one **full repartitioning**
  (traced as the ``svc-rebuild`` phase).

A flush is **exception-safe**: whatever interrupts it — a delete with no
live victim (:class:`SpecError`) or a simulated crash mid-I/O — the work
already applied is accounted (drift, rebalance), every unapplied
operation goes back to the front of the buffer (the victimless delete
alone is dropped: retrying it can never succeed), and a durable index
logs exactly the applied subset to its write-ahead log (never after a
crash, so a torn flush is invisible to recovery).

The partition convention matches the paper throughout: partition ``j``
holds the composites in ``(s_{j-1}, s_j]``, where ``s_j`` is the largest
composite of partition ``j``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_search, cmp_sort
from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import (
    UID_MAX,
    composite,
    composite_of,
    empty_records,
    make_records,
)
from ..em.streams import BlockReader, BlockWriter
from ..alg.inmemory import select_at_ranks
from ..alg.multipartition import multi_partition
from ..core.partitioning import approximate_partition
from ..core.spec import validate_params
from ..apps.order_stats import rank_of_fraction
from ..obs.metrics import current_registry
from ..obs.recorder import current_recorder

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["PartitionIndex"]


def _near_equal(total: int, pieces: int) -> list[int]:
    """Split ``total`` into ``pieces`` sizes differing by at most one."""
    base, extra = divmod(total, pieces)
    return [base + (1 if i < extra else 0) for i in range(pieces)]


class _Partition:
    """One live partition: disk segments plus in-memory tombstones.

    ``stored`` counts records on disk including tombstoned ones; ``live``
    is the partition's logical size.  Tombstones are the composites of
    deleted records, applied lazily at the next compaction.
    """

    __slots__ = ("segments", "stored", "tombstones")

    def __init__(self, segments: list[EMFile], stored: int, tombstones=None):
        self.segments = segments
        self.stored = stored
        self.tombstones: set[int] = tombstones if tombstones is not None else set()

    @property
    def live(self) -> int:
        return self.stored - len(self.tombstones)


class PartitionIndex:
    """A live approximate-K-partition index over one machine's disk.

    Build with :meth:`build`; the index owns its partition segments (the
    input file is left intact and may be freed by the caller).  Use as a
    context manager or call :meth:`close` to release disk and memory.
    """

    def __init__(
        self,
        machine: "Machine",
        k: int,
        slack: float = 1.0,
        rebuild_threshold: float = 0.5,
    ) -> None:
        if slack <= 0:
            raise SpecError("service slack must be positive")
        if rebuild_threshold <= 0:
            raise SpecError("rebuild threshold must be positive")
        self._machine = machine
        self._k0 = int(k)
        self.slack = float(slack)
        self.rebuild_threshold = float(rebuild_threshold)
        self.a = 1
        self.b = 1
        self._target = 1
        self._parts: list[_Partition] = []
        self._splitters = np.empty(0, dtype=np.int64)
        self._n_live = 0
        self._n0 = 0
        self._drift = 0
        self._next_uid = 0
        #: Buffered updates in submission order: ``("append", records)``
        #: carries pre-assigned uids, ``("delete", (key, None))`` resolves
        #: its victim at flush time.
        self._ops: list[tuple] = []
        self._n_appends = 0
        self._n_deletes = 0
        self._m_pending = None  # write-path telemetry, bound on first update
        self._resident = machine.memory.lease(0, "svc-resident")
        self._closed = False
        self.stats = {
            "splits": 0,
            "merges": 0,
            "rebuilds": 0,
            "compactions": 0,
            "update_flushes": 0,
        }
        # Telemetry: bound to the ambient registry at construction.
        # Bookkeeping reads only lifetime counters / plain ints — no
        # model charge flows through any instrument.
        metrics = self._metrics = current_registry()
        self._m_query_io = metrics.histogram(
            "svc_query_io",
            "per-query attributed simulated I/O (block transfers)",
            labels=("engine",),
        ).labels(engine="eager")
        self._m_drift = metrics.gauge(
            "svc_drift", "updates applied since the last (re)build"
        )
        self._m_maint = metrics.counter(
            "svc_maintenance",
            "partition maintenance operations by kind",
            labels=("op",),
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        machine: "Machine",
        file: EMFile,
        k: int,
        slack: float = 1.0,
        rebuild_threshold: float = 0.5,
    ) -> "PartitionIndex":
        """Build an index over ``file`` with ``<= k`` partitions.

        Costs one approximate K-partitioning (Theorem 6 two-sided) plus
        one scan to extract the splitter composites.  ``slack`` sets the
        size window ``a = ⌊(N/K)/(1+slack)⌋``, ``b = ⌈(N/K)·(1+slack)⌉``;
        the default ``slack = 1`` gives ``b ≥ 2a``, which is what keeps
        local split/merge rebalancing stable under updates.
        """
        if k < 1:
            raise SpecError("need k >= 1")
        idx = cls(machine, k, slack=slack, rebuild_threshold=rebuild_threshold)
        idx._install(file, k, free_input=False)
        return idx

    def _install(self, file: EMFile, k: int, free_input: bool) -> None:
        """(Re)build all partitions from ``file``; resets drift."""
        m = self._machine
        n = len(file)
        k = max(1, min(int(k), max(1, n)))
        per = max(1.0, n / k)
        self._target = max(1, int(round(per)))
        self.a = max(1, int(per / (1 + self.slack)))
        self.b = max(self.a + 1, int(math.ceil(per * (1 + self.slack))))
        self._n0 = n
        self._drift = 0
        self._m_drift.set(0)
        if n == 0:
            self._parts = [_Partition([], 0)]
            self._splitters = np.empty(0, dtype=np.int64)
            self._n_live = 0
            self._sync_resident()
            if free_input:
                file.free()
            return
        validate_params(n, k, self.a, self.b)
        with m.phase("svc-build"):
            pf = approximate_partition(m, file, k, self.a, self.b)
            parts = [
                _Partition(pf.segments_of(p), pf.partition_sizes[p])
                for p in range(pf.num_partitions)
            ]
            # One scan extracts the splitter composites (the max composite
            # of every partition) and the uid high-water mark for appends.
            maxima: list[int] = []
            max_uid = -1
            for part in parts:
                part_max = -(1 << 62)
                for seg in part.segments:
                    with BlockReader(seg, "svc-build-splitters") as reader:
                        for block in reader:
                            cmp_linear(m, 2 * len(block))
                            part_max = max(part_max, int(composite(block).max()))
                            max_uid = max(max_uid, int(block["uid"].max()))
                maxima.append(part_max)
        self._parts = parts
        self._splitters = np.array(maxima[:-1], dtype=np.int64)
        self._n_live = n
        self._next_uid = max(self._next_uid, max_uid + 1)
        if free_input:
            file.free()
        self._sync_resident()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        """Logical number of records (pending updates included)."""
        return self._n_live + self._n_appends - self._n_deletes

    @property
    def num_partitions(self) -> int:
        return len(self._parts)

    @property
    def drift(self) -> int:
        """Updates applied since the last (re)build."""
        return self._drift

    def partition_sizes(self) -> list[int]:
        """Live size of every partition (pending updates not flushed)."""
        return [p.live for p in self._parts]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, rank: int):
        """The record of 1-based ``rank`` in composite order."""
        return self.batch_select(np.array([rank], dtype=np.int64))[0]

    def quantile(self, q: float):
        """The record at the ``q``-quantile (nearest rank)."""
        self._flush()
        if self._n_live == 0:
            raise SpecError("quantile of an empty index")
        return self.select(rank_of_fraction(self._n_live, q))

    def batch_select(self, ranks) -> np.ndarray:
        """Records at the given 1-based ``ranks`` (aligned; duplicates OK).

        Deduplicates internally: each distinct partition touched is
        loaded (or scanned) exactly once per call, however many ranks
        land in it.
        """
        self._flush()
        m = self._machine
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return empty_records(0)
        n = self._n_live
        if n == 0:
            raise SpecError("select on an empty index")
        if ranks.min() < 1 or ranks.max() > n:
            raise SpecError(f"ranks must lie in [1, {n}]")
        unique, inverse = np.unique(ranks, return_inverse=True)
        dup = np.bincount(inverse, minlength=len(unique))
        live = np.array([p.live for p in self._parts], dtype=np.int64)
        ends = np.cumsum(live)
        j_of = np.searchsorted(ends, unique, side="left")
        cmp_search(m, len(unique), len(ends))
        out = empty_records(len(unique))
        with m.phase("svc-select"):
            for j in np.unique(j_of):
                mask = j_of == j
                below = int(ends[j - 1]) if j > 0 else 0
                local = unique[mask] - below
                io_base = self._life_io()
                out[mask] = self._select_in_partition(int(j), local)
                # Attribute the partition load evenly over the queries
                # it answered (duplicates included); observations sum
                # back to the exact lifetime delta.
                served = int(dup[mask].sum())
                spent = self._life_io() - io_base
                self._m_query_io.observe(spent / served, count=served)
        return out[inverse]

    def range_count(self, lo_key: int, hi_key: int) -> int:
        """Number of live elements with key in ``(lo_key, hi_key]``.

        Interior partitions are counted from their live sizes (free);
        each endpoint costs at most one partition scan.
        """
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        self._flush()
        if self._n_live == 0:
            return 0
        with self._machine.phase("svc-range"):
            hi = self._rank_of_composite(composite_of(hi_key, UID_MAX))
            lo = self._rank_of_composite(composite_of(lo_key, UID_MAX))
        return hi - lo

    def partition_of(self, key: int) -> int:
        """Index of the first partition that may contain ``key`` —
        ``O(log K)`` comparisons, zero I/O."""
        self._flush()
        if not self._parts:
            raise SpecError("partition_of on a closed index")
        j = int(
            np.searchsorted(self._splitters, composite_of(key, 0), side="left")
        )
        cmp_search(self._machine, 1, max(1, len(self._splitters)))
        return j

    # ------------------------------------------------------------------
    # Updates: buffered, then applied by the loop WAL replay shares
    # ------------------------------------------------------------------
    def append(self, keys) -> None:
        """Buffer new elements with the given keys (fresh uids assigned)."""
        self._bind_update_metrics()
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.size == 0:
            return
        recs = make_records(keys, uids=self._fresh_uids(len(keys)))
        self._ops.append(("append", recs))
        self._n_appends += len(recs)
        self._buffered()

    def delete(self, key: int) -> None:
        """Buffer the deletion of one live element with key ``key``.

        The delete targets the state as of its position in the batch: a
        record appended *later* in the same batch is not a candidate.
        """
        self._bind_update_metrics()
        self._ops.append(("delete", (int(key), None)))
        self._n_deletes += 1
        self._buffered()

    def flush_updates(self) -> dict | None:
        """Apply all buffered updates now; returns flush stats (or None)."""
        return self._flush()

    def _bind_update_metrics(self) -> None:
        """Bind the write path's telemetry on the first update, so an
        index that never updates registers none of it."""
        if self._m_pending is not None:
            return
        metrics = self._metrics
        self._recorder = current_recorder()
        self._m_pending = metrics.gauge(
            "svc_pending_deltas", "buffered update operations awaiting flush"
        )
        self._m_flush_io = metrics.histogram(
            "svc_flush_io",
            "simulated I/O per flush by kind",
            labels=("kind",),
        ).labels(kind="update")
        updates = metrics.counter(
            "svc_updates", "applied update operations by kind", labels=("op",)
        )
        self._m_app = updates.labels(op="append")
        self._m_del = updates.labels(op="delete")

    def _buffered(self) -> None:
        """Charge a newly buffered operation; flush at ``max(B, M/8)``."""
        m = self._machine
        pending = self._n_appends + self._n_deletes
        self._sync_resident()
        self._m_pending.set(pending)
        if pending >= max(m.B, m.M // 8):
            self._flush()

    def _recount(self) -> None:
        """Recompute the pending counts from the buffer."""
        self._n_appends = sum(
            len(op[1]) for op in self._ops if op[0] == "append"
        )
        self._n_deletes = sum(1 for op in self._ops if op[0] == "delete")

    def _flush(self) -> dict | None:
        """Apply every buffered update in order; returns flush statistics
        (``None`` when nothing is buffered).

        Queries call this directly.  The buffer leaves the resident lease
        before it is applied.  On any exception the applied prefix is
        accounted and every unapplied operation goes back to the front
        of the buffer, except a delete with no live victim
        (:class:`SpecError`), which is dropped.  The applied prefix is
        logged to a durable index's WAL unless the flush crashed.
        """
        if not self._ops:
            return None
        m = self._machine
        ops, self._ops = self._ops, []
        self._n_appends = self._n_deletes = 0
        self._sync_resident()
        touched: set[int] = set()
        applied: list[tuple] = []
        crashed = completed = rebuilt = False
        n_app = n_del = 0
        io_base = self._life_io()
        try:
            try:
                with m.phase("svc-update"):
                    try:
                        self._apply(ops, touched, applied)
                    except SpecError:
                        del ops[0]  # the victimless delete
                        raise
                    except BaseException:
                        crashed = True
                        raise
                    finally:
                        n_app, n_del = self._account(applied, touched)
                        if not crashed and applied:
                            self._log_applied(applied)
            finally:
                self._ops[:0] = ops
                self._recount()
                self._sync_resident()
            rebuilt = self._end_flush()
            self._maybe_checkpoint()
            self._sync_resident()
            completed = True
            return {
                "appended": n_app,
                "deleted": n_del,
                "touched_partitions": len(touched),
                "rebuilt": rebuilt,
            }
        finally:
            # Telemetry only — plain bookkeeping that cannot raise or
            # mask the in-flight exception; runs on crashed flushes too
            # so the flight recorder keeps the last pre-crash event.
            self._m_pending.set(self._n_appends + self._n_deletes)
            self._m_app.inc(n_app)
            self._m_del.inc(n_del)
            self._m_drift.set(self._drift)
            self._m_flush_io.observe(self._life_io() - io_base)
            self._recorder.record(
                "update-flush",
                appended=n_app,
                deleted=n_del,
                touched=len(touched),
                rebuilt=rebuilt,
                completed=completed,
            )

    def _apply(self, ops: list[tuple], touched: set, applied: list) -> None:
        """Apply ``ops`` in order: the one loop a flush and a WAL replay run.

        Consecutive appends coalesce into one batch, routed to overflow
        segments by one binary search over the splitters; a delete
        ``(key, uid)`` tombstones its victim through :meth:`_tombstone`.
        Progress is recorded as it happens — ``touched`` gains every
        partition written, ``applied`` every operation done (a delete
        with its victim's uid) — and ``ops`` is consumed from the front,
        so whatever interrupts the loop leaves in ``ops`` exactly the
        operations not applied, in order.
        """
        m = self._machine
        while ops:
            kind, arg = ops[0]
            if kind == "delete":
                key, uid = arg
                j, uid = self._tombstone(key, uid)
                del ops[0]
                touched.add(j)
                applied.append(("delete", (key, uid)))
                continue
            n = 1
            while n < len(ops) and ops[n][0] == "append":
                n += 1
            run = [op[1] for op in ops[:n]]
            batch = run[0] if n == 1 else m.kernel.concat(run)
            ops[:n] = [("append", batch)]
            # Replayed appends carry the uids their original run assigned.
            self._next_uid = max(self._next_uid, int(batch["uid"].max()) + 1)
            j_of = np.searchsorted(self._splitters, composite(batch), "left")
            cmp_search(m, len(batch), max(1, len(self._splitters)))
            done = np.zeros(len(batch), dtype=bool)
            try:
                for j in np.unique(j_of).tolist():
                    sel = j_of == j
                    recs = batch[sel]
                    seg = self._write_segment(recs, "svc-append")
                    part = self._parts[j]
                    part.segments.append(seg)
                    part.stored += len(recs)
                    self._n_live += len(recs)
                    touched.add(j)
                    applied.append(("append", recs))
                    done |= sel
            except BaseException:
                ops[0] = ("append", batch[~done])
                raise
            del ops[0]

    def _tombstone(self, key: int, uid: int | None) -> tuple[int, int]:
        """Tombstone one live record; returns its ``(partition, uid)``.

        With ``uid=None`` (a flush) the victim is the first live element
        with ``key``, and its uid is what a durable index logs; with a
        uid (a WAL replay) it is exactly that element, so recovery kills
        the same one even when its partition layout differs.  Duplicate
        keys equal to a splitter key can straddle a partition boundary,
        so every candidate partition between the key's lowest and
        highest possible composite is scanned until the victim is found.
        """
        m = self._machine
        splitters = self._splitters
        j_lo = int(np.searchsorted(splitters, composite_of(key, 0), "left"))
        j_hi = int(
            np.searchsorted(splitters, composite_of(key, UID_MAX), "left")
        )
        cmp_search(m, 2, max(1, len(splitters)))
        for j in range(j_lo, min(j_hi, len(self._parts) - 1) + 1):
            part = self._parts[j]
            for seg in part.segments:
                with BlockReader(seg, "svc-delete-scan") as reader:
                    for block in reader:
                        cmp_linear(m, len(block))
                        for hit in block["uid"][block["key"] == key].tolist():
                            c = composite_of(key, hit)
                            if uid in (None, hit) and c not in part.tombstones:
                                part.tombstones.add(c)
                                self._n_live -= 1
                                self._sync_resident()
                                return j, hit
        victim = f"with key {key}" if uid is None else f"({key}, {uid})"
        raise SpecError(f"delete: no live element {victim}")

    def _account(self, applied: list, touched: set) -> tuple[int, int]:
        """Add applied operations to drift and rebalance what they
        touched; returns ``(appended, deleted)`` record counts."""
        n_app = sum(len(op[1]) for op in applied if op[0] == "append")
        n_del = sum(1 for op in applied if op[0] == "delete")
        self._drift += n_app + n_del
        self._rebalance(touched)
        return n_app, n_del

    def _end_flush(self) -> bool:
        """Count a flush; rebuild (returns True) once drift exceeds
        ``rebuild_threshold · N₀``."""
        self.stats["update_flushes"] += 1
        if self._drift <= self.rebuild_threshold * max(1, self._n0):
            return False
        self._rebuild()
        return True

    def _fresh_uids(self, count: int) -> np.ndarray:
        start = self._next_uid
        if start + count - 1 > UID_MAX:
            raise SpecError("uid space exhausted")
        self._next_uid = start + count
        return np.arange(start, start + count, dtype=np.int64)

    # ------------------------------------------------------------------
    # Durability hooks (no-ops on the volatile base index)
    # ------------------------------------------------------------------
    def _log_applied(self, entries: list[tuple]) -> None:
        """Called with the applied operations of a flush that did not
        crash.  The base index is volatile."""

    def _maybe_checkpoint(self) -> None:
        """Called after every completed flush; a durable index may take
        a snapshot here.  The base index is volatile."""

    def _discard_segment(self, seg: EMFile) -> None:
        """Release a segment that left the index (compaction, split,
        rebuild).  A durable index defers the free until the next
        snapshot commits, because the latest on-disk snapshot may still
        reference these blocks."""
        seg.free()

    # ------------------------------------------------------------------
    # Partition access
    # ------------------------------------------------------------------
    @staticmethod
    def _footprint(part: _Partition) -> int:
        """Buffer records needed to load the partition (whole blocks)."""
        return sum(
            seg.num_blocks * seg.machine.B for seg in part.segments
        )

    def _select_in_partition(self, j: int, local_ranks: np.ndarray) -> np.ndarray:
        """Records at 1-based ``local_ranks`` within partition ``j``."""
        m = self._machine
        part = self._parts[j]
        if self._footprint(part) > m.load_limit:
            self._compact(j)
        footprint = self._footprint(part)
        if footprint <= m.load_limit:
            with m.memory.lease(footprint, "svc-partition-load"):
                recs = self._read_segments(part.segments)
                recs = self._drop_tombstoned(recs, self._tomb_array(part))
                return select_at_ranks(m, recs, local_ranks)
        # Oversized even when compacted (only possible for b >> M):
        # fall back to external multi-selection on the single segment.
        return np.asarray(multi_select_em(m, part.segments[0], local_ranks))

    def _read_segments(self, segments: list[EMFile]) -> np.ndarray:
        """Counted read of all segments into memory (caller holds lease)."""
        parts = [
            seg.read_range(0, seg.num_blocks) for seg in segments if len(seg)
        ]
        if not parts:
            return empty_records(0)
        if len(parts) == 1:
            return parts[0]
        out = empty_records(sum(len(p) for p in parts))
        off = 0
        for p in parts:
            out[off : off + len(p)] = p
            off += len(p)
        return out

    def _drop_tombstoned(self, recs: np.ndarray, tomb: np.ndarray):
        """``recs`` minus the records whose composites are in ``tomb`` (a
        partition's sorted tombstones); partition loads and compaction
        streams share this filter."""
        if not len(tomb):
            return recs
        comps = composite(recs)
        cmp_search(self._machine, len(recs), len(tomb))
        pos = np.minimum(np.searchsorted(tomb, comps), len(tomb) - 1)
        return recs[tomb[pos] != comps]

    @staticmethod
    def _tomb_array(part: _Partition) -> np.ndarray:
        tomb = np.fromiter(
            part.tombstones, dtype=np.int64, count=len(part.tombstones)
        )
        tomb.sort()
        return tomb

    def _rank_of_composite(self, c: int) -> int:
        """Number of live elements with composite ``<= c``."""
        m = self._machine
        j = int(np.searchsorted(self._splitters, c, side="left"))
        cmp_search(m, 1, max(1, len(self._splitters)))
        below = sum(self._parts[i].live for i in range(j))
        part = self._parts[j]
        if part.stored == 0:
            return below
        count = 0
        for seg in part.segments:
            with BlockReader(seg, "svc-range-scan") as reader:
                for block in reader:
                    cmp_linear(m, len(block))
                    count += int((composite(block) <= c).sum())
        if part.tombstones:
            tomb = self._tomb_array(part)
            cmp_search(m, 1, len(tomb))
            count -= int(np.searchsorted(tomb, c, side="right"))
        return below + count

    # ------------------------------------------------------------------
    # Maintenance (compaction, split, merge, rebuild)
    # ------------------------------------------------------------------
    def _write_live(self, writer: BlockWriter, part: _Partition) -> None:
        """Stream a partition's live records into ``writer``."""
        tomb = self._tomb_array(part)
        for seg in part.segments:
            with BlockReader(seg, "svc-compact-in") as reader:
                for block in reader:
                    writer.write(self._drop_tombstoned(block, tomb))

    def _write_segment(self, recs: np.ndarray, label: str) -> EMFile:
        """Write ``recs`` to a fresh segment; a failure leaks nothing."""
        writer = BlockWriter(self._machine, label)
        try:
            writer.write(recs)
            return writer.close()
        except BaseException:
            writer.abort()
            raise

    def _compact(self, j: int) -> None:
        """Rewrite partition ``j`` as one segment, applying tombstones."""
        part = self._parts[j]
        if len(part.segments) <= 1 and not part.tombstones:
            return
        m = self._machine
        with m.phase("svc-compact"):
            writer = BlockWriter(m, "svc-compact-out")
            try:
                self._write_live(writer, part)
                out = writer.close()
            except BaseException:
                writer.abort()
                raise
        for seg in part.segments:
            self._discard_segment(seg)
        if len(out):
            part.segments = [out]
        else:
            out.free()
            part.segments = []
        part.stored = len(out)
        part.tombstones = set()
        self.stats["compactions"] += 1
        self._m_maint.labels(op="compaction").inc()
        self._sync_resident()

    def _rebalance(self, touched) -> None:
        """Restore the ``[a, b]`` window for every touched partition.

        Processes indices in descending order so splices at index ``j``
        never invalidate a later (smaller) index.
        """
        for j in sorted(set(touched), reverse=True):
            if j >= len(self._parts):
                continue
            part = self._parts[j]
            if part.live > self.b:
                self._split(j)
            elif part.live < self.a and len(self._parts) > 1:
                self._merge(j)

    def _split(self, j: int) -> None:
        """Split partition ``j`` into near-target-size pieces."""
        m = self._machine
        with m.phase("svc-rebalance"):
            self._compact(j)
            part = self._parts[j]
            live = part.stored
            pieces = max(2, int(round(live / self._target)))
            sizes = _near_equal(live, pieces)
            if self._footprint(part) <= m.load_limit:
                new_parts, maxima = self._split_in_memory(part, sizes)
            else:
                new_parts, maxima = self._split_external(part, sizes)
        old_segments = part.segments
        self._parts[j : j + 1] = new_parts
        self._splitters = np.concatenate(
            [
                self._splitters[:j],
                np.array(maxima[:-1], dtype=np.int64),
                self._splitters[j:],
            ]
        )
        for seg in old_segments:
            self._discard_segment(seg)
        self.stats["splits"] += 1
        self._m_maint.labels(op="split").inc()
        self._sync_resident()

    def _split_in_memory(self, part: _Partition, sizes: list[int]):
        m = self._machine
        with m.memory.lease(self._footprint(part), "svc-split-load"):
            recs = self._read_segments(part.segments)
            cmp_sort(m, len(recs))
            recs = m.kernel.sort_by_composite(recs)
            new_parts: list[_Partition] = []
            maxima: list[int] = []
            off = 0
            for s in sizes:
                piece = recs[off : off + s]
                off += s
                f = self._write_segment(piece, "svc-split-out")
                new_parts.append(_Partition([f], s))
                maxima.append(int(composite(piece[-1:])[0]))
        return new_parts, maxima

    def _split_external(self, part: _Partition, sizes: list[int]):
        m = self._machine
        pf = multi_partition(m, part.segments[0], sizes)
        new_parts: list[_Partition] = []
        maxima: list[int] = []
        for p in range(pf.num_partitions):
            segs = pf.segments_of(p)
            piece_max = -(1 << 62)
            for seg in segs:
                with BlockReader(seg, "svc-split-scan") as reader:
                    for block in reader:
                        cmp_linear(m, len(block))
                        piece_max = max(piece_max, int(composite(block).max()))
            new_parts.append(_Partition(segs, pf.partition_sizes[p]))
            maxima.append(piece_max)
        return new_parts, maxima

    def _merge(self, j: int) -> None:
        """Merge undersized partition ``j`` with its smaller neighbour.

        Pure metadata (zero I/O): segment lists concatenate and one
        splitter disappears.  Keeps absorbing neighbours while the union
        stays under ``a`` (mass deletes), and re-splits if it overshoots
        ``b``.
        """
        parts = self._parts
        while len(parts) > 1 and parts[j].live < self.a:
            if j == 0:
                nb = 1
            elif j == len(parts) - 1:
                nb = j - 1
            else:
                nb = j - 1 if parts[j - 1].live <= parts[j + 1].live else j + 1
            lo, hi = min(j, nb), max(j, nb)
            merged = _Partition(
                parts[lo].segments + parts[hi].segments,
                parts[lo].stored + parts[hi].stored,
                parts[lo].tombstones | parts[hi].tombstones,
            )
            parts[lo : hi + 1] = [merged]
            self._splitters = np.delete(self._splitters, lo)
            self.stats["merges"] += 1
            self._m_maint.labels(op="merge").inc()
            j = lo
            if merged.live > self.b:
                self._split(lo)
                break
        self._sync_resident()

    def _rebuild(self) -> None:
        """Full repartitioning from the live records (drift exceeded)."""
        m = self._machine
        with m.phase("svc-rebuild"):
            writer = BlockWriter(m, "svc-rebuild-stage")
            try:
                for part in self._parts:
                    self._write_live(writer, part)
                stage = writer.close()
            except BaseException:
                writer.abort()
                raise
            for part in self._parts:
                for seg in part.segments:
                    self._discard_segment(seg)
            self._install(stage, self._k0, free_input=True)
        self.stats["rebuilds"] += 1
        self._m_maint.labels(op="rebuild").inc()

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def _life_io(self) -> int:
        """Lifetime I/O total — the metrics attribution baseline.

        Lifetime counters are public and survive ``reset_counters``, so
        reading them here charges nothing to the model (same contract
        the tracer's conservation check relies on).
        """
        life = self._machine.disk.lifetime
        return life.reads + life.writes

    def _resident_total(self) -> int:
        """Records of control state held resident (lease size)."""
        total = len(self._splitters) + len(self._parts)
        total += sum(len(p.tombstones) for p in self._parts)
        return total + self._n_appends + self._n_deletes

    def _sync_resident(self) -> None:
        """Size the resident lease to the control state actually held."""
        self._resident.resize(self._resident_total())

    def check_invariants(self) -> bool:
        """Verify structural invariants (uncounted; tests only).

        Checks splitter monotonicity, per-partition composite ranges,
        tombstone containment, size bookkeeping, and — whenever more
        than one partition exists — the ``[a, b]`` window.
        """
        assert len(self._splitters) == max(0, len(self._parts) - 1)
        if len(self._splitters) > 1:
            assert bool(np.all(np.diff(self._splitters) > 0))
        total = 0
        with self._machine.uncounted():  # emlint: disable=R2 — invariant checker, tests only
            for j, part in enumerate(self._parts):
                assert part.live >= 0
                assert sum(len(s) for s in part.segments) == part.stored
                total += part.live
                recs = [s.to_numpy(counted=False) for s in part.segments]  # emlint: disable=R2 — invariant checker, tests only
                comps = (
                    np.concatenate([composite(r) for r in recs])
                    if recs
                    else np.empty(0, dtype=np.int64)
                )
                if j > 0 and len(comps):
                    assert comps.min() > self._splitters[j - 1]
                if j < len(self._parts) - 1 and len(comps):
                    assert comps.max() <= self._splitters[j]
                assert part.tombstones <= set(int(c) for c in comps)
                if len(self._parts) > 1:
                    assert self.a <= part.live <= self.b
        assert total == self._n_live
        return True

    def abandon(self) -> None:
        """Drop the in-memory handle without freeing any disk blocks.

        Simulates process death: every lease is released (memory
        vanishes with the process) but the partition segments stay
        allocated on disk.  Only meaningful for a durable index — the
        blocks are reachable again through its manifest — but defined
        here so crash tests can abandon a volatile shadow too.
        """
        if self._closed:
            return
        self._parts = []
        self._splitters = np.empty(0, dtype=np.int64)
        self._n_live = 0
        self._ops = []
        self._n_appends = self._n_deletes = 0
        if not self._resident.released:
            self._resident.release()
        self._closed = True

    def close(self) -> None:
        """Free every partition segment and release the resident lease."""
        if not self._closed:
            for part in self._parts:
                for seg in part.segments:
                    seg.free()
        PartitionIndex.abandon(self)

    def __enter__(self) -> "PartitionIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def multi_select_em(machine: "Machine", file: EMFile, ranks: np.ndarray):
    """Late import wrapper for the offline fallback (rarely taken)."""
    from ..core.multiselect import multi_select

    return multi_select(machine, file, ranks)
