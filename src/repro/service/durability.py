"""Durability for the partition service: WAL, snapshots, recovery.

The volatile :class:`~repro.service.index.PartitionIndex` loses every
applied update when its process dies — the paper's model has no notion
of persistence beyond "blocks on disk survive".  This module builds
exactly that survival story out of EM blocks, with every I/O charged to
the machine like any algorithm:

**Write-ahead delta log (WAL).**  A fixed run of ``wal_capacity``
consecutive blocks.  Each block stores up to ``B`` records: record 0 is
a header ``(MAGIC_WAL, epoch, used)``; the remaining ``B - 1`` slots
hold log entries packed one per record — ``APPEND(key, uid)``,
``DELETE(key, victim_uid)``, ``COMMIT(seq, n_ops)``.  Each
:meth:`~repro.service.index.PartitionIndex.flush_updates` (and each
automatic flush) group-commits its *applied* operations as one group
whose trailing ``COMMIT`` entry is the durability point: the tail block
is rewritten in place (block writes are atomic), so a crash mid-append
leaves the previous committed prefix intact and the torn group
invisible.  Logging happens *after* application (a redo log of work
that definitely happened), and never after a crash-like exception — so
recovery can replay groups blindly without double-applying a torn
flush.

**Snapshots.**  A snapshot serializes the index's control state —
splitters, partition descriptors (segment block ids and lengths),
tombstone composites, uid high-water mark, drift — into words packed
three-per-record in a fresh EM file, then commits it with a single
atomic write of the one-block *manifest*.  The manifest names the
snapshot run and the current ``epoch``; bumping the epoch logically
truncates the WAL for free (stale blocks still carry the old epoch in
their headers and are ignored).  Segment blocks retired between
snapshots (compaction, split, rebuild) are *deferred* — freed only once
the next manifest lands — because the latest on-disk snapshot still
references them.

**Recovery.**  :func:`recover` reads the manifest, adopts the snapshot
run, decodes the index, scans the WAL for committed groups of the
manifest's epoch, replays them in order through the live flush loop
(appends carry their original uids; deletes name the exact victim, so
replay is deterministic even if the rebuilt partition layout diverges),
and finally snapshots the recovered state.  The answers of the
recovered index are element-identical to the uncrashed one because its
*live record multiset* is identical — layout may differ, query answers
cannot.

Cost model: logging a flush of ``g`` operations costs
``O(1 + g / (B-1))`` write I/Os; a snapshot costs ``O(K + S/B)`` writes
for ``S`` metadata words over ``K`` partitions; recovery costs one
manifest read + the snapshot scan + the live WAL scan + replay (append
routing and victim scans at the usual service rates) + one final
snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import RECORD_DTYPE, make_records
from ..obs.metrics import current_registry
from ..obs.recorder import current_recorder
from .index import PartitionIndex, _Partition

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["DurableStore", "DurablePartitionIndex", "recover"]

#: Format magics (arbitrary but distinctive 63-bit constants).
MAGIC_MANIFEST = 0x454D4D414E494601  # "EMMANIF" + 1
MAGIC_WAL = 0x454D57414C4F4701  # "EMWALOG" + 1
MAGIC_SNAP = 0x454D534E41505301  # "EMSNAPS" + 1
#: On-disk format version.
VERSION = 1

#: WAL entry tags.
_T_APPEND = 1
_T_DELETE = 2
_T_COMMIT = 3

#: Number of words in the manifest.
_MANIFEST_WORDS = 9


# ----------------------------------------------------------------------
# Word <-> record packing
# ----------------------------------------------------------------------
def _words_to_records(words) -> np.ndarray:
    """Pack int64 words three-per-record (zero-padded tail).

    Metadata is not element data, so the packing bypasses
    :func:`make_records` range validation — block ids and bit-cast
    floats legitimately exceed the key range.
    """
    words = np.asarray(words, dtype=np.int64)
    n = max(1, -(-len(words) // 3))
    flat = np.zeros(3 * n, dtype=np.int64)
    flat[: len(words)] = words
    recs = np.empty(n, dtype=RECORD_DTYPE)
    recs["key"] = flat[0::3]
    recs["uid"] = flat[1::3]
    recs["grp"] = flat[2::3]
    return recs


def _records_to_words(recs: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`_words_to_records`; keeps the first ``count``."""
    flat = np.empty(3 * len(recs), dtype=np.int64)
    flat[0::3] = recs["key"]
    flat[1::3] = recs["uid"]
    flat[2::3] = recs["grp"]
    return flat[:count]


def _f2i(x: float) -> int:
    """Bit-cast a float into an int64 word (lossless)."""
    return int(np.float64(x).view(np.int64))


def _i2f(w: int) -> float:
    return float(np.int64(w).view(np.float64))


# ----------------------------------------------------------------------
# Durable store: manifest + WAL + snapshot lifecycle
# ----------------------------------------------------------------------
class DurableStore:
    """On-disk durability state shared by one durable index.

    Owns one manifest block, a consecutive run of ``wal_capacity`` WAL
    blocks, the current snapshot run, and the list of *retired* segment
    blocks whose free is deferred to the next snapshot commit.  A
    persistent ``B``-record lease (``svc-wal-tail``) pays for the tail
    block image every append rewrites.
    """

    def __init__(
        self,
        machine: "Machine",
        manifest_bid: int,
        wal_start: int,
        wal_capacity: int,
        epoch: int,
        seq: int,
    ) -> None:
        self.machine = machine
        self.manifest_bid = int(manifest_bid)
        self.wal_start = int(wal_start)
        self.wal_capacity = int(wal_capacity)
        self.epoch = int(epoch)
        #: Sequence number of the latest durable flush group.
        self.seq = int(seq)
        self._tail_lease = machine.memory.lease(machine.B, "svc-wal-tail")
        self._blocks_full = 0
        self._tail_entries: list[tuple[int, int, int]] = []
        self._snapshot_blocks: list[int] = []
        self._snapshot_len = 0
        self._retired: list[int] = []
        self.commits_since_snapshot = 0
        self.stats = {"wal_writes": 0, "groups_logged": 0, "snapshots": 0}
        # Telemetry: ambient registry/recorder, bound at construction.
        metrics = current_registry()
        self._recorder = current_recorder()
        self._m_wal_writes = metrics.counter(
            "svc_wal_writes", "WAL block writes (tail rewrites included)"
        )
        self._m_groups = metrics.counter(
            "svc_wal_groups", "flush groups committed to the WAL"
        )
        self._m_snapshots = metrics.counter(
            "svc_snapshots", "metadata snapshots committed"
        )
        self._m_wal_blocks = metrics.gauge(
            "svc_wal_blocks_used", "WAL blocks holding live entries"
        )
        self._m_epoch = metrics.gauge(
            "svc_snapshot_epoch", "current durability epoch"
        )
        self._m_epoch.set(self.epoch)

    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, machine: "Machine", wal_capacity: int | None = None
    ) -> "DurableStore":
        """Allocate and pre-format a fresh manifest + WAL region.

        Every WAL block is formatted with an epoch-0 header up front so
        the recovery scan never reads an uninitialized block (epoch 0 is
        permanently stale: live epochs start at 1).  Costs
        ``wal_capacity`` write I/Os once, at service start.
        """
        B = machine.B
        if wal_capacity is None:
            wal_capacity = max(8, machine.M // B)
        if wal_capacity < 1:
            raise SpecError("wal capacity must be >= 1")
        ids = machine.disk.allocate(1 + wal_capacity)
        store = cls(machine, ids[0], ids[1], wal_capacity, epoch=1, seq=0)
        try:
            with machine.phase("svc-wal"):
                stale = np.empty(1, dtype=RECORD_DTYPE)
                stale["key"] = MAGIC_WAL
                stale["uid"] = 0
                stale["grp"] = 0
                for i in range(wal_capacity):
                    machine.disk.write(store.wal_start + i, stale)
        except BaseException:
            store.destroy()
            raise
        return store

    # ------------------------------------------------------------------
    # WAL
    # ------------------------------------------------------------------
    @property
    def entries_per_block(self) -> int:
        return self.machine.B - 1

    @property
    def wal_room(self) -> int:
        """Entries the WAL can still absorb before the next snapshot."""
        epb = self.entries_per_block
        return (self.wal_capacity - self._blocks_full) * epb - len(
            self._tail_entries
        )

    def log_group(self, seq: int, entries: list[tuple]) -> bool:
        """Append one flush group, commit included; False when full.

        ``entries`` is a flush's applied-operation list:
        ``("append", records)`` / ``("delete", (key, uid))``.  The group
        becomes durable exactly when the block holding its trailing
        ``COMMIT`` entry lands; a crash at any earlier write leaves a
        torn (commit-less) suffix that recovery discards.  On ``False``
        nothing is written — the caller snapshots instead, which
        subsumes the group and resets the log.
        """
        triples: list[tuple[int, int, int]] = []
        for e in entries:
            if e[0] == "append":
                recs = e[1]
                for key, uid in zip(
                    recs["key"].tolist(), recs["uid"].tolist()
                ):
                    triples.append((_T_APPEND, int(key), int(uid)))
            else:
                key, uid = e[1]
                triples.append((_T_DELETE, int(key), int(uid)))
        triples.append((_T_COMMIT, int(seq), len(triples)))
        if len(triples) > self.wal_room:
            return False
        epb = self.entries_per_block
        with self.machine.phase("svc-wal"):
            i = 0
            while i < len(triples):
                take = min(epb - len(self._tail_entries), len(triples) - i)
                self._tail_entries.extend(triples[i : i + take])
                i += take
                self._write_tail()
                if len(self._tail_entries) == epb:
                    self._blocks_full += 1
                    self._tail_entries = []
        self.seq = int(seq)
        self.commits_since_snapshot += 1
        self.stats["groups_logged"] += 1
        self._m_groups.inc()
        self._m_wal_blocks.set(
            self._blocks_full + (1 if self._tail_entries else 0)
        )
        self._recorder.record(
            "wal-group", wal_seq=self.seq, entries=len(triples)
        )
        return True

    def _write_tail(self) -> None:
        """Rewrite the tail WAL block in place (one atomic write I/O)."""
        used = len(self._tail_entries)
        out = np.empty(1 + used, dtype=RECORD_DTYPE)
        out["key"][0] = MAGIC_WAL
        out["uid"][0] = self.epoch
        out["grp"][0] = used
        for i, (tag, a, b) in enumerate(self._tail_entries):
            out["key"][i + 1] = tag
            out["uid"][i + 1] = a
            out["grp"][i + 1] = b
        self.machine.disk.write(self.wal_start + self._blocks_full, out)
        self.stats["wal_writes"] += 1
        self._m_wal_writes.inc()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def write_snapshot(self, index: "DurablePartitionIndex") -> None:
        """Serialize ``index`` and commit it via the manifest.

        The snapshot payload is written first (to fresh blocks, batched,
        atomic under fault injection); the single manifest write is the
        commit point.  Only after the manifest lands are the previous
        snapshot's blocks and every retired segment block freed, and the
        WAL logically reset by the epoch bump already recorded in the
        new manifest.  A fault before the manifest write restores the
        in-memory state and releases the unreachable new blocks.
        """
        m = self.machine
        with m.phase("svc-snapshot"):
            words = _encode_snapshot(index, self.seq)
            recs = _words_to_records(words)
            with m.memory.lease(len(recs), "svc-snapshot-buf"):
                snap = EMFile.from_records(m, recs)
            old_blocks = self._snapshot_blocks
            old_len = self._snapshot_len
            old_epoch = self.epoch
            self._snapshot_blocks = list(snap.block_ids)
            self._snapshot_len = len(words)
            self.epoch = old_epoch + 1
            try:
                self._write_manifest()
            except BaseException:
                self._snapshot_blocks = old_blocks
                self._snapshot_len = old_len
                self.epoch = old_epoch
                snap.free()  # unreachable: no manifest names these blocks
                raise
        if old_blocks:
            m.disk.free(old_blocks)
        if self._retired:
            m.disk.free(self._retired)
            self._retired = []
        self._blocks_full = 0
        self._tail_entries = []
        self.commits_since_snapshot = 0
        self.stats["snapshots"] += 1
        self._m_snapshots.inc()
        self._m_epoch.set(self.epoch)
        self._m_wal_blocks.set(0)
        self._recorder.record(
            "snapshot", epoch=self.epoch, wal_seq=self.seq
        )

    def _write_manifest(self) -> None:
        words = np.array(
            [
                MAGIC_MANIFEST,
                VERSION,
                self.epoch,
                self.seq,
                self._snapshot_blocks[0] if self._snapshot_blocks else -1,
                len(self._snapshot_blocks),
                self._snapshot_len,
                self.wal_start,
                self.wal_capacity,
            ],
            dtype=np.int64,
        )
        self.machine.disk.write(self.manifest_bid, _words_to_records(words))

    # ------------------------------------------------------------------
    # Deferred frees / lifecycle
    # ------------------------------------------------------------------
    def retire(self, seg: EMFile) -> None:
        """Defer freeing a segment until the next snapshot commits.

        The latest on-disk snapshot may reference these blocks; freeing
        them now would let a new writer recycle blocks a crashed
        process's recovery still needs.
        """
        self._retired.extend(seg.block_ids)

    @property
    def retired_blocks(self) -> int:
        return len(self._retired)

    def release(self) -> None:
        """Release the tail lease (process exit; disk state persists)."""
        if not self._tail_lease.released:
            self._tail_lease.release()

    def destroy(self) -> None:
        """Free every store-owned block (tests/teardown only)."""
        dead = [self.manifest_bid]
        dead += list(range(self.wal_start, self.wal_start + self.wal_capacity))
        dead += self._snapshot_blocks
        dead += self._retired
        self._snapshot_blocks = []
        self._retired = []
        self.machine.disk.free(dead)
        self.release()


# ----------------------------------------------------------------------
# Snapshot codec
# ----------------------------------------------------------------------
def _encode_snapshot(index: "DurablePartitionIndex", seq: int) -> np.ndarray:
    words: list[int] = [
        MAGIC_SNAP,
        VERSION,
        int(seq),
        index._next_uid,
        index._n_live,
        index._n0,
        index._drift,
        index._k0,
        index.a,
        index.b,
        index._target,
        _f2i(index.slack),
        _f2i(index.rebuild_threshold),
        int(index.snapshot_every),
        len(index._parts),
    ]
    words.extend(int(s) for s in index._splitters)
    for part in index._parts:
        words.append(part.stored)
        words.append(len(part.tombstones))
        words.append(len(part.segments))
        for seg in part.segments:
            words.append(len(seg))
            words.append(seg.num_blocks)
            words.extend(seg.block_ids)
        words.extend(sorted(part.tombstones))
    return np.array(words, dtype=np.int64)


def _decode_snapshot(
    machine: "Machine", words: np.ndarray, store: DurableStore
) -> "DurablePartitionIndex":
    w = [int(x) for x in words]
    p = 0

    def take(n: int) -> list[int]:
        nonlocal p
        out = w[p : p + n]
        if len(out) != n:
            raise SpecError("snapshot truncated")
        p += n
        return out

    (magic, version, seq, next_uid, n_live, n0, drift, k0, a, b, target,
     slack_w, thresh_w, snapshot_every, n_parts) = take(15)
    if magic != MAGIC_SNAP:
        raise SpecError("bad snapshot magic")
    if version != VERSION:
        raise SpecError(f"unsupported snapshot version {version}")
    if seq != store.seq:
        raise SpecError("snapshot/manifest sequence mismatch")
    idx = DurablePartitionIndex(
        machine,
        k0,
        slack=_i2f(slack_w),
        rebuild_threshold=_i2f(thresh_w),
        store=store,
        snapshot_every=snapshot_every,
    )
    idx._next_uid = next_uid
    idx._n0 = n0
    idx._drift = drift
    idx.a, idx.b, idx._target = a, b, target
    idx._splitters = np.array(take(max(0, n_parts - 1)), dtype=np.int64)
    parts: list[_Partition] = []
    for _ in range(n_parts):
        stored, ntombs, nsegs = take(3)
        segments: list[EMFile] = []
        for _ in range(nsegs):
            length, nblocks = take(2)
            ids = take(nblocks)
            segments.append(EMFile.adopt(machine, ids, length))
        tombs = set(take(ntombs))
        parts.append(_Partition(segments, stored, tombs))
    idx._parts = parts
    idx._n_live = n_live
    if n_live != sum(part.live for part in parts):
        raise SpecError("snapshot live-count mismatch (corrupt payload)")
    idx._sync_resident()
    return idx


# ----------------------------------------------------------------------
# Durable index
# ----------------------------------------------------------------------
class DurablePartitionIndex(PartitionIndex):
    """A :class:`PartitionIndex` whose state survives process death.

    Every applied flush is group-committed to the WAL; every
    ``snapshot_every`` commits (or whenever the WAL fills) the full
    metadata is checkpointed.  :meth:`close` takes a final snapshot and
    *keeps* the disk state; :meth:`abandon` simulates a crash (drop
    memory, keep disk); :func:`recover` brings either back.
    """

    def __init__(
        self,
        machine: "Machine",
        k: int,
        slack: float = 1.0,
        rebuild_threshold: float = 0.5,
        store: DurableStore | None = None,
        snapshot_every: int = 16,
    ) -> None:
        super().__init__(machine, k, slack, rebuild_threshold)
        if store is None:
            raise SpecError("durable index requires a DurableStore")
        if snapshot_every < 1:
            raise SpecError("snapshot_every must be >= 1")
        self._store = store
        self.snapshot_every = int(snapshot_every)

    @classmethod
    def build_durable(
        cls,
        machine: "Machine",
        file: EMFile,
        k: int,
        slack: float = 1.0,
        rebuild_threshold: float = 0.5,
        wal_capacity: int | None = None,
        snapshot_every: int = 16,
    ) -> "DurablePartitionIndex":
        """Build the index and make it durable (initial snapshot).

        The build is not *crash-recoverable* — durability begins the
        moment the initial snapshot's manifest lands — but a failure
        mid-build still tears everything down (no leaked leases or
        blocks): there is no manifest worth recovering yet.
        """
        store = DurableStore.create(machine, wal_capacity)
        idx = cls(
            machine,
            k,
            slack=slack,
            rebuild_threshold=rebuild_threshold,
            store=store,
            snapshot_every=snapshot_every,
        )
        try:
            idx._install(file, k, free_input=False)
            idx.snapshot()
        except BaseException:
            idx.destroy()
            raise
        return idx

    # ------------------------------------------------------------------
    @property
    def manifest_block(self) -> int:
        """Block id to hand to :func:`recover` after a crash."""
        return self._store.manifest_bid

    @property
    def applied_seq(self) -> int:
        """Sequence number of the latest durable flush group."""
        return self._store.seq

    def snapshot(self) -> None:
        """Checkpoint the full index metadata now."""
        self._store.write_snapshot(self)

    def durability_stats(self) -> dict:
        s = self._store
        return {
            "epoch": s.epoch,
            "seq": s.seq,
            "wal_capacity": s.wal_capacity,
            "wal_blocks_used": s._blocks_full + (1 if s._tail_entries else 0),
            "retired_blocks": s.retired_blocks,
            "snapshot_blocks": len(s._snapshot_blocks),
            **s.stats,
        }

    # ------------------------------------------------------------------
    # Durability hooks (called by the flush) and WAL replay
    # ------------------------------------------------------------------
    def _log_applied(self, entries: list[tuple]) -> None:
        seq = self._store.seq + 1
        if not self._store.log_group(seq, entries):
            # WAL full: the snapshot subsumes this group (its effects
            # are already applied to the state being serialized).
            self._store.seq = seq
            self.snapshot()

    def _maybe_checkpoint(self) -> None:
        if self._store.commits_since_snapshot >= self.snapshot_every:
            self.snapshot()

    def _discard_segment(self, seg: EMFile) -> None:
        self._store.retire(seg)

    def _replay(self, ops: list[tuple]) -> None:
        """Re-apply one committed WAL group during :func:`recover`.

        Runs the flush's apply loop on ``ops`` — appends carry the uids
        the original run assigned, deletes name their exact victim — and
        its accounting (drift, rebalance, rebuild threshold), so the
        recovered index keeps the same maintenance cadence.  Unlike a
        flush it puts nothing back, logs nothing and emits no telemetry:
        a failure aborts recovery, and ``recover`` snapshots once at the
        end.
        """
        touched: set[int] = set()
        applied: list[tuple] = []
        with self._machine.phase("svc-update"):
            self._apply(ops, touched, applied)
            self._account(applied, touched)
        self._end_flush()
        self._sync_resident()

    def _resident_total(self) -> int:
        # The deferred-free list is honest resident state: one word per
        # retired block id — a record is three words, so charge
        # retired/3 records, rounded up.
        return super()._resident_total() + -(-self._store.retired_blocks // 3)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def abandon(self) -> None:
        """Simulate a crash: drop all memory, keep all disk blocks."""
        if not self._closed:
            self._store._recorder.record(
                "abandon", wal_seq=self._store.seq, epoch=self._store.epoch
            )
            self._store.release()
        super().abandon()

    def close(self) -> None:
        """Flush pending updates, snapshot, and release memory.

        Disk state (segments, snapshot, WAL, manifest) is *kept* —
        that is the point of durability; use :meth:`destroy` to tear a
        test fixture down completely.
        """
        if self._closed:
            return
        self._flush()
        self.snapshot()
        self.abandon()

    def destroy(self) -> None:
        """Free every disk block this index reaches (tests/teardown)."""
        if self._closed:
            return
        for part in self._parts:
            for seg in part.segments:
                seg.free()
        self._store.destroy()
        super().abandon()


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def recover(machine: "Machine", manifest_bid: int) -> DurablePartitionIndex:
    """Rebuild a durable index from its manifest after a crash.

    Reads the manifest, adopts and decodes the latest snapshot, replays
    every committed WAL group of the manifest's epoch in order, and
    snapshots the recovered state (so a crash during recovery is itself
    recoverable from the old manifest, and a crash right after recovery
    resumes from the new one).  Returns the recovered index; its
    :attr:`~DurablePartitionIndex.applied_seq` tells the caller how
    many flush groups survived.
    """
    B = machine.B
    with machine.phase("svc-recover"):
        with machine.memory.lease(B, "svc-recover-buf"):
            head = machine.disk.read(manifest_bid)
            words = _records_to_words(head, _MANIFEST_WORDS)
        (magic, version, epoch, seq, snap_start, snap_nblocks,
         snap_word_len, wal_start, wal_capacity) = (int(x) for x in words)
        if magic != MAGIC_MANIFEST:
            raise SpecError(f"block {manifest_bid} is not a manifest")
        if version != VERSION:
            raise SpecError(f"unsupported manifest version {version}")
        if snap_start < 0 or snap_nblocks < 1:
            raise SpecError("manifest names no snapshot")
        store = DurableStore(
            machine, manifest_bid, wal_start, wal_capacity, epoch, seq
        )
        snap_ids = list(range(snap_start, snap_start + snap_nblocks))
        store._snapshot_blocks = snap_ids
        store._snapshot_len = snap_word_len
        try:
            with machine.memory.lease(snap_nblocks * B, "svc-recover-snap"):
                payload = machine.disk.read_many(snap_ids)
                index = _decode_snapshot(
                    machine, _records_to_words(payload, snap_word_len), store
                )
        except BaseException:
            store.release()
            raise
        try:
            groups = _scan_wal(machine, store)
            # Counted up front: replay consumes each group's list.
            n_ops = sum(len(entries) for _, entries in groups)
            for gseq, entries in groups:
                with machine.memory.lease(len(entries), "svc-replay-buf"):
                    index._replay(entries)
                store.seq = gseq
            index.snapshot()
        except BaseException:
            index.abandon()
            raise
    metrics = current_registry()
    metrics.counter(
        "svc_recovery_groups", "WAL groups replayed during recovery"
    ).inc(len(groups))
    metrics.counter(
        "svc_recovery_ops", "WAL entries replayed during recovery"
    ).inc(n_ops)
    current_recorder().record(
        "recover",
        groups=len(groups),
        ops=n_ops,
        n_live=index._n_live,
        wal_seq=store.seq,
    )
    return index


def _scan_wal(
    machine: "Machine", store: DurableStore
) -> list[tuple[int, list[tuple]]]:
    """Committed groups of the manifest's epoch, in log order.

    Scans blocks front to back; stops at the first stale header (older
    epoch) or the first non-full block (the tail).  Entries after the
    last ``COMMIT`` belong to a torn group and are discarded.  Each
    group is a list of flush-loop operations: ``("append", records)``
    with one record per logged append (the loop coalesces runs) and
    ``("delete", (key, uid))``.
    """
    groups: list[tuple[int, list[tuple]]] = []
    pending: list[tuple] = []
    expect = store.seq + 1
    epb = store.entries_per_block
    with machine.memory.lease(machine.B, "svc-recover-wal"):
        for i in range(store.wal_capacity):
            blk = machine.disk.read(store.wal_start + i)
            if (
                len(blk) == 0
                or int(blk["key"][0]) != MAGIC_WAL
                or int(blk["uid"][0]) != store.epoch
            ):
                break
            used = int(blk["grp"][0])
            for t in range(1, used + 1):
                tag = int(blk["key"][t])
                a = int(blk["uid"][t])
                b = int(blk["grp"][t])
                if tag == _T_APPEND:
                    pending.append(("append", make_records([a], uids=[b])))
                elif tag == _T_DELETE:
                    pending.append(("delete", (a, b)))
                elif tag == _T_COMMIT:
                    if a != expect or b != len(pending):
                        raise SpecError("corrupt WAL commit entry")
                    groups.append((a, pending))
                    pending = []
                    expect += 1
                else:
                    raise SpecError(f"corrupt WAL entry tag {tag}")
            if used < epb:
                break
    return groups

