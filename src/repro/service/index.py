"""Eager partition index: approximate K-splitters kept live for queries.

:class:`PartitionIndex` materializes an approximate K-partitioning of an
:class:`~repro.em.file.EMFile` once (two-sided window ``[a, b]`` with
``a = ⌊N/2K⌋`` and ``b = ⌈2N/K⌉``) as the sorted leaf list of
:mod:`repro.service.online`, built to K leaves up front, and keeps it
live under updates.

**Queries: inherited, one path.**  ``select`` / ``batch_select`` /
``quantile``, ``range_count`` and ``partition_of`` are
:class:`~repro.service.online.LazyPartitionIndex`'s: ``O(log K)``
comparisons to locate a leaf, one leaf load shared by every rank
landing in it (answers cached until the next update), and a range count
that scans at most the two partitions it cuts, each once.  Appends widen
the leaf list's closed outer edges before they land.  Where the
lazy engine refines an oversized leaf, the eager one compacts it: the
``[a, b]`` window owns partition sizes.  Every query first flushes the
buffered updates below.

The resident control state (splitter composites, partition sizes,
tombstones, pending updates, cached answers) is held under a machine
memory lease, so the simulator's budget accounting covers the service
like any other algorithm.

**Write path.**  :meth:`~PartitionIndex.append` and
:meth:`~PartitionIndex.delete` buffer operations in memory; the buffer
flushes once it holds ``max(B, M/8)`` of them, on
:meth:`~PartitionIndex.flush_updates`, and before any query, so every
answer reflects every prior update.  A flush with buffered operations
first empties the answer cache (cached ranks name records of the old
state), then applies the buffer with the same loop a WAL replay
(:func:`repro.service.durability.recover`) runs:

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
from ..em.records import UID_MAX, composite, composite_of, make_records
from ..em.streams import BlockWriter, scan_chunks
from ..alg.multipartition import multi_partition
from ..core.partitioning import _near_equal_sizes, approximate_partition
from ..core.spec import validate_params
from .online import LazyPartitionIndex, _Leaf

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["PartitionIndex"]


class PartitionIndex(LazyPartitionIndex):
    """A live approximate-K-partition index over one machine's disk.

    The lazy engine's sorted leaf list, built to K leaves up front, that
    also takes updates; every query is inherited.  Build with
    :meth:`build`; the index owns its partition segments (the input file
    is left intact and may be freed by the caller).  Use as a context
    manager or call :meth:`close` to release disk and memory.
    """

    def __init__(
        self,
        machine: "Machine",
        k: int,
        rebuild_threshold: float = 0.5,
    ) -> None:
        if rebuild_threshold <= 0:
            raise SpecError("rebuild threshold must be positive")
        self._open(machine, "eager")
        self._k0 = int(k)
        self.rebuild_threshold = float(rebuild_threshold)
        self.a = 1
        self.b = 1
        self._target = 1
        self._n0 = 0
        self._drift = 0
        self._next_uid = 0
        #: Buffered updates in submission order: ``("append", records)``
        #: carries pre-assigned uids, ``("delete", (key, None))`` resolves
        #: its victim at flush time.
        self._ops: list[tuple] = []
        self._n_appends = 0
        self._n_deletes = 0
        self.stats.update(
            splits=0, merges=0, rebuilds=0, compactions=0, update_flushes=0
        )
        metrics = self._metrics
        self._recorder = metrics.flight
        self._m_drift = metrics.gauge(
            "svc_drift", "updates applied since the last (re)build"
        )
        self._m_maint = metrics.counter(
            "svc_maintenance",
            "partition maintenance operations by kind",
            labels=("op",),
        )
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

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        machine: "Machine",
        file: EMFile,
        k: int,
        rebuild_threshold: float = 0.5,
    ) -> "PartitionIndex":
        """Build an index over ``file`` with ``<= k`` partitions.

        Costs one approximate K-partitioning (Theorem 6 two-sided) plus
        one scan to extract the splitter composites.  The size window is
        ``a = ⌊(N/K)/2⌋``, ``b = ⌈2·N/K⌉``: ``b ≥ 2a`` is what keeps
        local split/merge rebalancing stable under updates.
        """
        if k < 1:
            raise SpecError("need k >= 1")
        idx = cls(machine, k, rebuild_threshold=rebuild_threshold)
        try:
            idx._install(file, k, free_input=False)
        except BaseException:
            idx.close()
            raise
        return idx

    def _install(self, file: EMFile, k: int, free_input: bool) -> None:
        """(Re)build all partitions from ``file``; resets drift."""
        m = self._machine
        n = len(file)
        k = max(1, min(int(k), max(1, n)))
        per = max(1.0, n / k)
        self._target = max(1, int(round(per)))
        self.a = max(1, int(per / 2))
        self.b = max(self.a + 1, int(math.ceil(per * 2)))
        self._n0 = n
        self._drift = 0
        self._m_drift.set(0)
        parts, maxima, max_uid = [_Leaf([], 0)], [], -1
        if n:
            validate_params(n, k, self.a, self.b)
            with m.phase("svc-build"):
                pf = approximate_partition(m, file, k, self.a, self.b)
                parts = [
                    _Leaf(pf.segments_of(p), pf.partition_sizes[p])
                    for p in range(pf.num_partitions)
                ]
                # One scan extracts the splitter composites (the max
                # composite of every partition) and the uid high-water
                # mark for appends.
                try:
                    for part in parts:
                        part_max = -(1 << 62)
                        with scan_chunks(
                            part.segments, m.load_limit, "svc-build-splitters"
                        ) as chunks:
                            for chunk in chunks:
                                cmp_linear(m, 2 * len(chunk))
                                part_max = max(part_max, int(composite(chunk).max()))
                                max_uid = max(max_uid, int(chunk["uid"].max()))
                        maxima.append(part_max)
                except BaseException:
                    pf.free()
                    raise
        self._leaves = parts
        self._bounds = np.array(maxima[:-1], dtype=np.int64)
        self._resum()
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
        return int(self._cum[-1]) + self._n_appends - self._n_deletes

    def _resum(self) -> None:
        """Recompute the cumulative live sizes; called wherever live
        sizes or the layout change."""
        self._cum = np.cumsum(
            [leaf.live for leaf in self._leaves], dtype=np.int64
        )

    # ------------------------------------------------------------------
    # Updates: buffered, then applied by the loop WAL replay shares
    # ------------------------------------------------------------------
    def append(self, keys) -> None:
        """Buffer new elements with the given keys (fresh uids assigned)."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.size == 0:
            return
        recs = make_records(keys, uids=self._fresh_uids(len(keys)))
        self._ops.append(("append", recs))
        self._n_appends += len(recs)
        self._buffered(len(recs))

    def delete(self, key: int) -> None:
        """Buffer the deletion of one live element with key ``key``.

        The delete targets the state as of its position in the batch: a
        record appended *later* in the same batch is not a candidate.
        """
        self._ops.append(("delete", (int(key), None)))
        self._n_deletes += 1
        self._buffered(1)

    def flush_updates(self) -> dict | None:
        """Apply all buffered updates now; returns flush stats (or None)."""
        return self._flush()

    def _buffered(self, n: int) -> None:
        """Charge ``n`` newly buffered records; flush at ``max(B, M/8)``.

        The lease is in sync whenever an update is buffered (every
        public operation ends with it so), and buffering changes only
        the pending count, so the lease grows by ``n`` instead of
        re-summing the control state.
        """
        m = self._machine
        pending = self._n_appends + self._n_deletes
        self._resident.resize(self._resident.size + n)
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

        Queries call this directly.  The buffer and the cached answers
        leave the resident lease before it is applied.  On any exception
        the applied prefix is accounted and every unapplied operation
        goes back to the front of the buffer, except a delete with no
        live victim (:class:`SpecError`), which is dropped.  The applied
        prefix is logged to a durable index's WAL unless the flush
        crashed.
        """
        if not self._ops:
            return None
        m = self._machine
        ops, self._ops = self._ops, []
        self._n_appends = self._n_deletes = 0
        self._cache.clear()
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
            comps = composite(batch)
            j_of = np.searchsorted(self._bounds, comps, "left")
            cmp_search(m, len(batch), max(1, len(self._bounds)))
            # Widen the closed edges before any record lands, so a range
            # past a learned edge still counts what this batch adds.
            cmp_linear(m, 2 * len(batch))
            self._lo = min(self._lo, int(comps.min()))
            self._hi = max(self._hi, int(comps.max()))
            done = np.zeros(len(batch), dtype=bool)
            try:
                for j in np.unique(j_of).tolist():
                    sel = j_of == j
                    recs = batch[sel]
                    seg = self._write_segment(recs, "svc-append")
                    part = self._leaves[j]
                    part.segments.append(seg)
                    part.stored += len(recs)
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
        bounds = self._bounds
        j_lo = int(np.searchsorted(bounds, composite_of(key, 0), "left"))
        j_hi = int(np.searchsorted(bounds, composite_of(key, UID_MAX), "left"))
        cmp_search(m, 2, max(1, len(bounds)))
        for j in range(j_lo, min(j_hi, len(self._leaves) - 1) + 1):
            part = self._leaves[j]
            with scan_chunks(part.segments, m.B, "svc-delete-scan") as blocks:
                for block in blocks:
                    cmp_linear(m, len(block))
                    for hit in block["uid"][block["key"] == key].tolist():
                        c = composite_of(key, hit)
                        if uid in (None, hit) and c not in part.tombstones:
                            part.tombstones.add(c)
                            # One more resident tombstone; the lease was
                            # in sync when the apply loop started.
                            self._resident.resize(self._resident.size + 1)
                            return j, hit
        victim = f"with key {key}" if uid is None else f"({key}, {uid})"
        raise SpecError(f"delete: no live element {victim}")

    def _account(self, applied: list, touched: set) -> tuple[int, int]:
        """Add applied operations to drift, rebalance what they touched
        and recompute the cumulative sizes; returns ``(appended,
        deleted)`` record counts."""
        n_app = sum(len(op[1]) for op in applied if op[0] == "append")
        n_del = sum(1 for op in applied if op[0] == "delete")
        self._drift += n_app + n_del
        try:
            self._rebalance(touched)
        finally:
            self._resum()
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
    def _leaf_of_rank(self, rank: int) -> int:
        """Index of the partition holding global ``rank``, compacted when
        it does not fit: the ``[a, b]`` window owns partition sizes, so
        an eager partition is never refined.  One still too big is
        answered by external multi-selection (:meth:`_leaf_select`)."""
        j = int(np.searchsorted(self._cum, rank, side="left"))
        cmp_search(self._machine, 1, len(self._cum))
        if self._leaves[j].footprint > self._headroom():
            self._compact(j)
        return j

    # ------------------------------------------------------------------
    # Maintenance (compaction, split, merge, rebuild)
    # ------------------------------------------------------------------
    def _write_live(self, writer: BlockWriter, part: _Leaf) -> None:
        """Stream a partition's live records into ``writer``."""
        m = self._machine
        tomb = part.tomb_array()
        with scan_chunks(part.segments, m.load_limit, "svc-compact-in") as chunks:
            for chunk in chunks:
                writer.write(self._drop_tombstoned(chunk, tomb, m.B))

    def _write_segment(self, recs: np.ndarray, label: str) -> EMFile:
        """Write ``recs`` to a fresh segment; a failure leaks nothing."""
        with BlockWriter(self._machine, label) as writer:
            writer.write(recs)
            return writer.close()

    def _compact(self, j: int) -> None:
        """Rewrite partition ``j`` as one segment, applying tombstones."""
        part = self._leaves[j]
        if len(part.segments) <= 1 and not part.tombstones:
            return
        m = self._machine
        with m.phase("svc-compact"), BlockWriter(m, "svc-compact-out") as writer:
            self._write_live(writer, part)
            out = writer.close()
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
            if j >= len(self._leaves):
                continue
            part = self._leaves[j]
            if part.live > self.b:
                self._split(j)
            elif part.live < self.a and len(self._leaves) > 1:
                self._merge(j)

    def _split(self, j: int) -> None:
        """Split partition ``j`` into near-target-size pieces."""
        m = self._machine
        with m.phase("svc-rebalance"):
            self._compact(j)
            part = self._leaves[j]
            live = part.stored
            pieces = max(2, int(round(live / self._target)))
            sizes = _near_equal_sizes(live, pieces)
            if part.footprint <= m.load_limit:
                new_parts, maxima = self._split_in_memory(part, sizes)
            else:
                new_parts, maxima = self._split_external(part, sizes)
        old_segments = part.segments
        self._leaves[j : j + 1] = new_parts
        self._bounds = np.concatenate(
            [
                self._bounds[:j],
                np.array(maxima[:-1], dtype=np.int64),
                self._bounds[j:],
            ]
        )
        for seg in old_segments:
            self._discard_segment(seg)
        self.stats["splits"] += 1
        self._m_maint.labels(op="split").inc()
        self._sync_resident()

    def _split_in_memory(self, part: _Leaf, sizes: list[int]):
        m = self._machine
        with m.memory.lease(part.footprint, "svc-split-load"):
            recs = part.read()
            cmp_sort(m, len(recs))
            recs = m.kernel.sort_by_composite(recs)
            new_parts: list[_Leaf] = []
            maxima: list[int] = []
            off = 0
            for s in sizes:
                piece = recs[off : off + s]
                off += s
                f = self._write_segment(piece, "svc-split-out")
                new_parts.append(_Leaf([f], s))
                maxima.append(int(composite(piece[-1:])[0]))
        return new_parts, maxima

    def _split_external(self, part: _Leaf, sizes: list[int]):
        m = self._machine
        pf = multi_partition(m, part.segments[0], sizes)
        new_parts: list[_Leaf] = []
        maxima: list[int] = []
        for p in range(pf.num_partitions):
            segs = pf.segments_of(p)
            piece_max = -(1 << 62)
            with scan_chunks(segs, m.load_limit, "svc-split-scan") as chunks:
                for chunk in chunks:
                    cmp_linear(m, len(chunk))
                    piece_max = max(piece_max, int(composite(chunk).max()))
            new_parts.append(_Leaf(segs, pf.partition_sizes[p]))
            maxima.append(piece_max)
        return new_parts, maxima

    def _merge(self, j: int) -> None:
        """Merge undersized partition ``j`` with its smaller neighbour.

        Pure metadata (zero I/O): segment lists concatenate and one
        splitter disappears.  Keeps absorbing neighbours while the union
        stays under ``a`` (mass deletes), and re-splits if it overshoots
        ``b``.
        """
        parts = self._leaves
        while len(parts) > 1 and parts[j].live < self.a:
            if j == 0:
                nb = 1
            elif j == len(parts) - 1:
                nb = j - 1
            else:
                nb = j - 1 if parts[j - 1].live <= parts[j + 1].live else j + 1
            lo, hi = min(j, nb), max(j, nb)
            merged = _Leaf(
                parts[lo].segments + parts[hi].segments,
                parts[lo].stored + parts[hi].stored,
                parts[lo].tombstones | parts[hi].tombstones,
            )
            parts[lo : hi + 1] = [merged]
            self._bounds = np.delete(self._bounds, lo)
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
            with BlockWriter(m, "svc-rebuild-stage") as writer:
                for part in self._leaves:
                    self._write_live(writer, part)
                stage = writer.close()
            for part in self._leaves:
                for seg in part.segments:
                    self._discard_segment(seg)
            self._install(stage, self._k0, free_input=True)
        self.stats["rebuilds"] += 1
        self._m_maint.labels(op="rebuild").inc()

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def _resident_total(self) -> int:
        """Records of control state held resident, cached answers aside."""
        total = len(self._bounds) + len(self._leaves)
        total += sum(len(p.tombstones) for p in self._leaves)
        return total + self._n_appends + self._n_deletes

    def check_invariants(self) -> bool:
        """Verify structural invariants (uncounted; tests only).

        Checks splitter monotonicity, per-partition composite ranges
        (inside the closed edges too), tombstone containment, size
        bookkeeping, the resident lease (control state plus cached
        answers, which the write path grows by increments) and —
        whenever more than one partition exists — the ``[a, b]`` window.
        """
        assert self._resident.size == self._resident_total() + len(self._cache)
        assert len(self._bounds) == max(0, len(self._leaves) - 1)
        if len(self._bounds) > 1:
            assert bool(np.all(np.diff(self._bounds) > 0))
        sizes = []
        with self._machine.uncounted():  # emlint: disable=R2 — invariant checker, tests only
            for j, part in enumerate(self._leaves):
                assert part.live >= 0
                assert sum(len(s) for s in part.segments) == part.stored
                sizes.append(part.live)
                recs = [s.to_numpy() for s in part.segments]  # emlint: disable=R2 — invariant checker, tests only
                comps = (
                    np.concatenate([composite(r) for r in recs])
                    if recs
                    else np.empty(0, dtype=np.int64)
                )
                if j > 0 and len(comps):
                    assert comps.min() > self._bounds[j - 1]
                if j < len(self._leaves) - 1 and len(comps):
                    assert comps.max() <= self._bounds[j]
                if len(comps):
                    assert self._lo <= int(comps.min())
                    assert int(comps.max()) <= self._hi
                assert part.tombstones <= set(int(c) for c in comps)
                if len(self._leaves) > 1:
                    assert self.a <= part.live <= self.b
        assert np.array_equal(self._cum, np.cumsum(sizes))
        return True

    def abandon(self) -> None:
        """Drop the in-memory handle without freeing any disk blocks.

        Simulates process death as the lazy engine's :meth:`abandon`
        does; buffered updates vanish with it.  Only meaningful for a
        durable index — the blocks are reachable again through its
        manifest — but defined here so crash tests can abandon a
        volatile shadow too.
        """
        self._ops = []
        self._n_appends = self._n_deletes = 0
        super().abandon()
