"""Durability tests: exception-safe flush, WAL/snapshot crash recovery.

Three layers of coverage:

* **Flush semantics** — regression tests for three update-buffer bugs:
  a ``SpecError`` from a missing-key delete no longer discards the
  remaining buffered operations or skips drift/rebalance accounting;
  operations are applied in submission order (``delete k`` then
  ``append k`` no longer kills the new record); and a delete whose
  victim scan is interrupted goes back into the buffer.
* **Durable roundtrip** — a ``DurablePartitionIndex`` survives a clean
  process death (``abandon`` drops memory, keeps disk) and ``recover``
  rebuilds an index whose answers are element-identical.
* **Chaos sweep** — :func:`tests.test_failure_injection.arm_fault`
  kills the service at swept I/O offsets spanning flush, WAL append,
  snapshot write, and rebuild; every offset must leave zero leaked
  leases and a recoverable manifest whose recovered answers match an
  uncrashed shadow oracle that applied exactly the committed prefix of
  the update plan.
"""

import numpy as np
import pytest

from repro.em import Machine, SpecError
from repro.em.records import UID_MAX, composite, composite_of
from repro.service import DurablePartitionIndex, PartitionIndex, recover
from repro.workloads import few_distinct, load_input, random_permutation
from repro.workloads.queries import update_batches, zipfian_trace
from tests.test_failure_injection import InjectedFault, arm_fault


def _machine(sanitize=False):
    return Machine(memory=4096, block=64, sanitize=sanitize)


def _armed(mach, fail_at):
    """arm_fault wrapped with a disarm: restores the pristine disk
    methods so recovery never sees a leftover fault (an offset past the
    crash phase's total I/O then simply means "no crash happened")."""
    disk = mach.disk
    saved = (disk.read, disk.write, disk.read_many, disk.write_many)
    arm_fault(mach, fail_at)

    def disarm():
        disk.read, disk.write, disk.read_many, disk.write_many = saved

    return disarm


def _build_volatile(mach, recs, k=16, **kw):
    f = load_input(mach, recs)
    index = PartitionIndex.build(mach, f, k, **kw)
    f.free()
    return index


def _build_durable(mach, recs, k=16, **kw):
    f = load_input(mach, recs)
    index = DurablePartitionIndex.build_durable(mach, f, k, **kw)
    f.free()
    return index


def _apply_batch(index, batch) -> None:
    for op in batch:
        if op[0] == "append":
            index.append(op[1])
        else:
            index.delete(op[1])
    index.flush_updates()


def _live_keys(index):
    """Every live key, via a full rank sweep (exercises all partitions)."""
    return index.batch_select(np.arange(1, index.n_live + 1))["key"]


class TestFlushExceptionSafety:
    def test_failed_delete_keeps_remaining_ops(self):
        mach = _machine()
        recs = random_permutation(4096, seed=3)
        index = _build_volatile(mach, recs)
        index.append(np.array([10_000, 10_001], dtype=np.int64))
        index.delete(999_999)  # not present -> SpecError at flush
        index.append(np.array([10_002, 10_003], dtype=np.int64))
        with pytest.raises(SpecError):
            index.flush_updates()
        # The failing delete is dropped; everything after it survives
        # in the buffer and the next flush completes.
        index.flush_updates()
        keys = set(_live_keys(index).tolist())
        assert {10_000, 10_001, 10_002, 10_003} <= keys
        assert index.n_live == 4100
        index.check_invariants()
        index.close()

    def test_failed_flush_accounts_drift(self):
        mach = _machine()
        recs = random_permutation(4096, seed=4)
        index = _build_volatile(mach, recs)
        drift0 = index._drift
        index.append(np.array([20_000], dtype=np.int64))
        index.delete(999_999)
        with pytest.raises(SpecError):
            index.flush_updates()
        # The applied prefix (one append) must be drift-accounted even
        # though the flush raised.
        assert index._drift == drift0 + 1
        index.close()

    def test_ops_apply_in_submission_order(self):
        mach = _machine()
        recs = random_permutation(4096, seed=5)
        k = int(recs["key"][0])
        index = _build_volatile(mach, recs)
        # delete k, then append a new record with the same key: the old
        # uid must die and the new one survive (the old code applied
        # all appends first, so the delete killed the *new* record).
        index.delete(k)
        index.append(np.array([k], dtype=np.int64))
        index.flush_updates()
        assert index.n_live == 4096
        got = _live_keys(index)
        assert int((got == k).sum()) == 1
        # And the surviving uid is the fresh one (>= the initial count).
        sweep = index.batch_select(np.arange(1, index.n_live + 1))
        uid = int(sweep[sweep["key"] == k]["uid"][0])
        assert uid >= 4096
        index.close()

    def test_delete_before_append_of_absent_key_raises(self):
        mach = _machine()
        recs = random_permutation(4096, seed=6)
        index = _build_volatile(mach, recs)
        index.delete(777_777)  # nothing live with this key yet
        index.append(np.array([777_777], dtype=np.int64))
        with pytest.raises(SpecError):
            index.flush_updates()
        index.flush_updates()  # the append survives the failed delete
        assert index.n_live == 4097
        assert 777_777 in set(_live_keys(index).tolist())
        index.close()

    def test_interrupted_delete_is_put_back(self):
        mach = _machine()
        recs = random_permutation(4096, seed=8)
        victim = int(recs["key"][0])
        index = _build_volatile(mach, recs)
        index.delete(victim)
        arm_fault(mach, 1)  # the first I/O is the delete's victim scan
        with pytest.raises(InjectedFault):
            index.flush_updates()
        # The interrupted delete is still buffered, and a retry applies it.
        assert index.n_live == 4095
        index.flush_updates()
        assert index.n_live == 4095
        assert victim not in set(_live_keys(index).tolist())
        index.check_invariants()
        index.close()

    def test_interleaved_plan_matches_key_multiset_oracle(self):
        mach = _machine()
        recs = random_permutation(4096, seed=7)
        index = _build_volatile(mach, recs)
        plan = update_batches(recs["key"], 6, 40, 24, seed=7)
        oracle = recs["key"].tolist()
        for batch in plan:
            for op in batch:
                if op[0] == "append":
                    oracle.extend(int(x) for x in op[1])
                else:
                    oracle.remove(op[1])
            _apply_batch(index, [])  # flush nothing extra
            _apply_batch(index, batch)
        assert np.array_equal(np.sort(_live_keys(index)), np.sort(oracle))
        index.check_invariants()
        index.close()


class TestDurableRoundtrip:
    def test_clean_death_and_recover_identical(self):
        mach = _machine(sanitize=True)
        recs = random_permutation(8192, seed=11)
        index = _build_durable(mach, recs, snapshot_every=3)
        plan = update_batches(recs["key"], 6, 40, 12, seed=11)
        for batch in plan:
            _apply_batch(index, batch)
        assert index.applied_seq == 6
        trace = zipfian_trace(512, index.n_live, seed=12)
        want = composite(index.batch_select(trace))
        manifest = index.manifest_block
        index.abandon()
        assert mach.memory.in_use == 0
        rec = recover(mach, manifest)
        assert rec.applied_seq == 6
        got = composite(rec.batch_select(trace))
        assert np.array_equal(got, want)
        rec.check_invariants()
        rec.destroy()
        assert mach.memory.in_use == 0
        assert mach.disk.live_blocks == 0
        mach.close()

    def test_close_snapshots_and_keeps_disk(self):
        mach = _machine(sanitize=True)
        recs = random_permutation(4096, seed=13)
        index = _build_durable(mach, recs)
        index.append(np.array([50_000, 50_001], dtype=np.int64))
        manifest = index.manifest_block
        index.close()  # flushes the pending delta, snapshots, abandons
        assert mach.memory.in_use == 0
        rec = recover(mach, manifest)
        assert 50_000 in set(_live_keys(rec).tolist())
        assert rec.n_live == 4098
        rec.destroy()
        mach.close()

    def test_wal_full_subsumed_by_snapshot(self):
        mach = _machine(sanitize=True)
        recs = random_permutation(4096, seed=14)
        # One WAL block holds B-1 = 63 entries; a 64-op group (plus its
        # commit entry) cannot fit, so the flush must fall back to a
        # full snapshot that subsumes the group.
        index = _build_durable(mach, recs, wal_capacity=1,
                               snapshot_every=1000)
        snaps0 = index.durability_stats()["snapshots"]
        index.append(np.arange(60_000, 60_064, dtype=np.int64))
        index.flush_updates()
        assert index.applied_seq == 1
        assert index.durability_stats()["snapshots"] == snaps0 + 1
        manifest = index.manifest_block
        index.abandon()
        rec = recover(mach, manifest)
        assert rec.applied_seq == 1
        assert rec.n_live == 4160
        rec.destroy()
        mach.close()

    def test_duplicate_key_deletes_across_a_boundary_replay_identically(self):
        # Eight distinct keys over 16 partitions: the deleted key's
        # duplicates straddle a partition boundary (asserted below), so
        # deleting all its copies needs every candidate partition, live
        # and in replay.
        mach = _machine(sanitize=True)
        recs = few_distinct(4096, seed=11, n_distinct=8)
        index = _build_durable(mach, recs, k=16)
        key = 3
        splitters = index._splitters
        j_lo, j_hi = np.searchsorted(
            splitters, [composite_of(key, 0), composite_of(key, UID_MAX)]
        )
        assert j_hi > j_lo
        copies = int((recs["key"] == key).sum())
        for start in range(0, copies, 100):
            for _ in range(min(100, copies - start)):
                index.delete(key)
            index.flush_updates()
        assert key not in set(_live_keys(index).tolist())
        index.check_invariants()
        want = composite(index.batch_select(np.arange(1, index.n_live + 1)))
        manifest = index.manifest_block
        index.abandon()
        rec = recover(mach, manifest)
        assert rec.applied_seq == -(-copies // 100)
        got = composite(rec.batch_select(np.arange(1, rec.n_live + 1)))
        assert np.array_equal(got, want)
        rec.check_invariants()
        rec.destroy()
        mach.close()

    def test_snapshot_cadence(self):
        mach = _machine()
        recs = random_permutation(4096, seed=15)
        index = _build_durable(mach, recs, snapshot_every=2)
        snaps0 = index.durability_stats()["snapshots"]
        for i in range(4):
            index.append(np.array([70_000 + i], dtype=np.int64))
            index.flush_updates()
        # Four committed groups with snapshot_every=2 -> two more
        # snapshots past the build-time one.
        assert index.durability_stats()["snapshots"] == snaps0 + 2
        index.destroy()

    def test_long_churn_charges_retired_ids_by_the_word(self):
        # Regression: the deferred-free list was charged one record per
        # retired block id (three times its size), so about 2,300
        # resident ids starved the snapshot buffer and this run died at
        # round 79 with a MemoryBudgetError on 'svc-snapshot-buf'.
        n, rounds = 2**17, 100
        recs = random_permutation(n, seed=103)
        plan = update_batches(recs["key"], rounds, 48, 16, seed=103 + 1_000_003)
        ranks = zipfian_trace(rounds * 16, n, seed=103 + 2_000_006)
        index = _build_durable(_machine(), recs, k=64, snapshot_every=8)
        for batch, batch_ranks in zip(plan, ranks.reshape(rounds, 16)):
            _apply_batch(index, batch)
            index.batch_select(batch_ranks)
        assert index.durability_stats()["retired_blocks"] > 0
        assert index.n_live == n + rounds * (48 - 16)
        index.destroy()


def _shadow_answers(recs, plan, seq, trace, k=16, **kw):
    """Answers of an uncrashed volatile index that applied plan[:seq]."""
    mach = _machine()
    shadow = _build_volatile(mach, recs, k=k, **kw)
    for batch in plan[:seq]:
        _apply_batch(shadow, batch)
    n_live = shadow.n_live
    ans = composite(shadow.batch_select(trace))
    shadow.close()
    return n_live, ans


class TestChaosSweep:
    # Offsets chosen to land in the build-time snapshot tail, the first
    # WAL append, mid-flush partition rewrites, later snapshots, and
    # (for the churn case) the drift-triggered rebuild.
    OFFSETS = [1, 3, 9, 17, 33, 57, 101, 160, 241, 333, 480]

    @pytest.mark.parametrize("fail_at", OFFSETS)
    def test_kill_at_io_then_recover_identical(self, fail_at):
        mach = _machine(sanitize=True)
        recs = random_permutation(4096, seed=21)
        index = _build_durable(mach, recs, snapshot_every=3)
        plan = update_batches(recs["key"], 8, 40, 16, seed=21)
        disarm = _armed(mach, fail_at)
        try:
            for batch in plan:
                _apply_batch(index, batch)
        except InjectedFault:
            pass
        disarm()
        manifest = index.manifest_block
        index.abandon()
        assert mach.memory.in_use == 0, (
            f"crash at I/O #{fail_at} leaked "
            f"{mach.memory.in_use} leased records"
        )
        rec = recover(mach, manifest)
        seq = rec.applied_seq
        assert 0 <= seq <= len(plan)
        trace = zipfian_trace(256, rec.n_live, seed=22)
        n_live, want = _shadow_answers(recs, plan, seq, trace)
        assert rec.n_live == n_live
        assert np.array_equal(composite(rec.batch_select(trace)), want)
        rec.check_invariants()
        rec.destroy()
        mach.close()

    @pytest.mark.parametrize("fail_at", [5, 29, 61, 140, 260])
    def test_kill_during_rebuild_churn(self, fail_at):
        # A tiny rebuild threshold makes nearly every flush trigger a
        # full rebuild, so faults land inside sort/scan/snapshot of the
        # rebuild path as well.
        mach = _machine(sanitize=True)
        recs = random_permutation(2048, seed=23)
        index = _build_durable(mach, recs, snapshot_every=2,
                               rebuild_threshold=0.01)
        plan = update_batches(recs["key"], 5, 32, 16, seed=23)
        disarm = _armed(mach, fail_at)
        try:
            for batch in plan:
                _apply_batch(index, batch)
        except InjectedFault:
            pass
        disarm()
        manifest = index.manifest_block
        index.abandon()
        assert mach.memory.in_use == 0
        rec = recover(mach, manifest)
        seq = rec.applied_seq
        trace = zipfian_trace(256, rec.n_live, seed=24)
        n_live, want = _shadow_answers(recs, plan, seq, trace,
                                       rebuild_threshold=0.01)
        assert rec.n_live == n_live
        assert np.array_equal(composite(rec.batch_select(trace)), want)
        rec.destroy()
        mach.close()

    @pytest.mark.parametrize("fail_at", [1, 2, 4, 7])
    def test_kill_during_explicit_snapshot(self, fail_at):
        mach = _machine(sanitize=True)
        recs = random_permutation(4096, seed=25)
        index = _build_durable(mach, recs, snapshot_every=1000)
        index.append(np.array([80_000, 80_001], dtype=np.int64))
        index.flush_updates()
        want_live = index.n_live
        disarm = _armed(mach, fail_at)
        try:
            index.snapshot()
        except InjectedFault:
            pass
        disarm()
        manifest = index.manifest_block
        index.abandon()
        assert mach.memory.in_use == 0
        rec = recover(mach, manifest)
        # Whether or not the snapshot landed, the committed group must
        # survive (either via the old snapshot + WAL or the new one).
        assert rec.applied_seq == 1
        assert rec.n_live == want_live
        rec.destroy()
        mach.close()


class TestRecoverCLI:
    @pytest.mark.parametrize("fail_at", [0, 37, 200])
    def test_recover_verb_reports_identity(self, fail_at, capsys):
        from repro.cli import main

        rc = main([
            "recover", "--n", "4096", "--k", "16", "--batches", "4",
            "--batch-ops", "32", "--queries", "128",
            "--fail-at", str(fail_at),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "element-identical" in out
