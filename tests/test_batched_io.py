"""Differential tests: the batched I/O fast path vs the single-block path.

The batched layer (``Disk.read_many`` / ``Disk.write_many`` and the
``EMFile.read_range`` / ``EMFile.append_blocks`` wrappers) exists purely
for Python-level speed — model fidelity is non-negotiable.  These tests
assert that every observable piece of accounting (counters, per-phase
breakdown, the access trace) and every stored byte
is *identical* to performing the same transfers one block at a time.
"""

import numpy as np
import pytest

from repro.em import (
    BadBlockError,
    BlockSizeError,
    Disk,
    EMFile,
    FileError,
    Machine,
    composite,
)
from repro.em.file import read_runs
from repro.em.records import make_records
from tests.test_kernels import KERNELS


@pytest.fixture(autouse=True, params=KERNELS, ids=lambda k: k.name)
def each_kernel(request, monkeypatch):
    """Run every test in this module on the reference and on the
    production backend (the Disk constructor picks up the patched
    default at build time), so the batched-vs-single identity is proven
    per backend."""
    monkeypatch.setattr("repro.em.kernels._PRODUCTION", request.param)
    return request.param


def blk(n, start=0):
    return make_records(np.arange(start, start + n))


def staged_disk(B=8, nblocks=6, partial_last=3):
    """A disk with ``nblocks`` written blocks (last one partial)."""
    d = Disk(B)
    ids = d.allocate(nblocks)
    with d.uncounted():
        for i, bid in enumerate(ids):
            n = partial_last if i == nblocks - 1 else B
            d.write(bid, blk(n, start=i * B))
    return d, ids


def observable_state(d: Disk):
    c = d.snapshot()
    return (c.reads, c.writes, dict(c.by_phase))


class TestReadManyDifferential:
    def test_counters_phases_ids_and_trace_match_single_path(self):
        single, ids_s = staged_disk()
        batched, ids_b = staged_disk()
        single.start_trace()
        batched.start_trace()

        with single.phase("scan"):
            parts = [single.read(bid) for bid in ids_s]
        with batched.phase("scan"):
            out = batched.read_many(ids_b)

        assert observable_state(single) == observable_state(batched)
        assert single.stop_trace() == batched.stop_trace()
        assert np.array_equal(composite(np.concatenate(parts)), composite(out))

    def test_mixed_batch_and_single_interleaving(self):
        single, ids_s = staged_disk()
        batched, ids_b = staged_disk()
        single.start_trace()
        batched.start_trace()
        with single.phase("a"):
            for bid in ids_s[:3]:
                single.read(bid)
        with single.phase("b"):
            for bid in ids_s[3:]:
                single.read(bid)
        with batched.phase("a"):
            batched.read_many(ids_b[:3])
        with batched.phase("b"):
            batched.read_many(ids_b[3:])
        assert observable_state(single) == observable_state(batched)
        assert single.stop_trace() == batched.stop_trace()

    def test_empty_batch_charges_nothing(self):
        d, _ = staged_disk()
        d.start_trace()
        out = d.read_many([])
        assert len(out) == 0
        assert d.counters.total == 0
        assert d.stop_trace() == []

    def test_single_element_batch(self):
        d, ids = staged_disk()
        out = d.read_many(ids[:1])
        assert d.counters.reads == 1
        assert np.array_equal(out["key"], d.peek(ids[0])["key"])

    def test_returns_a_copy(self):
        d, ids = staged_disk()
        out = d.read_many(ids[:2])
        out["key"][0] = 999
        assert d.peek(ids[0])["key"][0] == 0

    def test_bad_id_raises_before_any_charge(self):
        d, ids = staged_disk()
        d.start_trace()
        with pytest.raises(BadBlockError):
            d.read_many([ids[0], 10_000])
        assert d.counters.total == 0
        assert d.stop_trace() == []

    def test_uncounted_batch(self):
        d, ids = staged_disk()
        d.start_trace()
        with d.uncounted():
            d.read_many(ids)
        assert d.counters.total == 0
        assert d.stop_trace() == []


class TestIdContainerTypes:
    """Regression: ``if not block_ids:`` raised ``ValueError: The truth
    value of an array with more than one element is ambiguous`` when a
    caller passed a numpy array of ids.  Every sequence type must behave
    identically, including when empty."""

    @pytest.mark.parametrize("wrap", [list, tuple, np.asarray])
    def test_read_many_accepts_any_sequence(self, wrap):
        d, ids = staged_disk()
        out = d.read_many(wrap(ids))
        assert d.counters.reads == len(ids)
        assert np.array_equal(out, d.read_many(list(ids)))

    @pytest.mark.parametrize(
        "empty", [[], (), np.empty(0, dtype=np.int64)]
    )
    def test_read_many_empty_of_any_type(self, empty):
        d, _ = staged_disk()
        out = d.read_many(empty)
        assert len(out) == 0 and d.counters.total == 0

    @pytest.mark.parametrize("wrap", [list, tuple, np.asarray])
    def test_write_many_accepts_any_sequence(self, wrap):
        B = 8
        d = Disk(B)
        ids = d.allocate(3)
        payload = blk(3 * B)
        d.write_many(wrap(ids), [payload])
        assert d.counters.writes == 3
        assert np.array_equal(d.peek(ids[0]), payload[:B])

    @pytest.mark.parametrize(
        "empty", [[], (), np.empty(0, dtype=np.int64)]
    )
    def test_write_many_empty_of_any_type(self, empty):
        d = Disk(8)
        d.write_many(empty, [blk(0)])
        assert d.counters.total == 0

    def test_numpy_ids_count_and_trace_like_python_ints(self):
        d1, ids1 = staged_disk()
        d2, ids2 = staged_disk()
        d1.start_trace()
        d2.start_trace()
        d1.read_many(list(ids1))
        d2.read_many(np.asarray(ids2, dtype=np.int64))
        assert observable_state(d1) == observable_state(d2)
        t1, t2 = d1.stop_trace(), d2.stop_trace()
        assert t1 == t2
        # Trace ids must be plain ints regardless of the input container.
        assert all(type(bid) is int for _, bid in t2)


class TestWriteManyDifferential:
    def test_counters_trace_and_bytes_match_single_path(self):
        B = 8
        payload = blk(3 * B + 5)
        single = Disk(B)
        batched = Disk(B)
        ids_s = single.allocate(4)
        ids_b = batched.allocate(4)
        single.start_trace()
        batched.start_trace()

        with single.phase("emit"):
            for i, bid in enumerate(ids_s):
                single.write(bid, payload[i * B : (i + 1) * B])
        with batched.phase("emit"):
            batched.write_many(ids_b, [payload])

        assert observable_state(single) == observable_state(batched)
        assert single.stop_trace() == batched.stop_trace()
        for bid_s, bid_b in zip(ids_s, ids_b):
            assert np.array_equal(
                single.peek(bid_s)["key"], batched.peek(bid_b)["key"]
            )

    def test_stores_a_copy(self):
        d = Disk(8)
        ids = d.allocate(1)
        data = blk(8)
        d.write_many(ids, [data])
        data["key"][0] = 999
        assert d.peek(ids[0])["key"][0] == 0

    def test_empty_batch_is_noop(self):
        d = Disk(8)
        d.write_many([], [blk(0)])
        assert d.counters.total == 0

    def test_oversize_payload_rejected_without_charge(self):
        d = Disk(8)
        ids = d.allocate(2)
        with pytest.raises(BlockSizeError):
            d.write_many(ids, [blk(17)])
        assert d.counters.total == 0

    def test_trailing_empty_blocks_rejected(self):
        d = Disk(8)
        ids = d.allocate(3)
        with pytest.raises(BlockSizeError):
            d.write_many(ids, [blk(16)])  # third block would stay empty
        assert d.counters.total == 0

    def test_duplicate_id_rejected(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with pytest.raises(BadBlockError):
            d.write_many([bid, bid], [blk(10)])
        assert d.counters.total == 0

    def test_unallocated_id_rejected_atomically(self):
        d = Disk(8)
        ids = d.allocate(1)
        with d.uncounted():
            d.write(ids[0], blk(8, start=100))
        with pytest.raises(BadBlockError):
            d.write_many([ids[0], 999], [blk(10)])
        # The valid block must be untouched.
        assert d.peek(ids[0])["key"][0] == 100

    def test_wrong_dtype_rejected(self):
        d = Disk(8)
        ids = d.allocate(1)
        with pytest.raises(BlockSizeError):
            d.write_many(ids, [np.zeros(4)])

    def test_multi_run_write_matches_single_writes(self):
        # Three runs (full, full, partial last) over six blocks: the
        # same counters, trace and bytes as six successive writes.
        B = 8
        runs = [blk(2 * B), blk(B, start=100), blk(2 * B + 3, start=200)]
        flat = np.concatenate(runs)
        single, batched = Disk(B), Disk(B)
        ids_s, ids_b = single.allocate(6), batched.allocate(6)
        single.start_trace()
        batched.start_trace()
        with single.phase("emit"):
            for i, bid in enumerate(ids_s):
                single.write(bid, flat[i * B : (i + 1) * B])
        with batched.phase("emit"):
            batched.write_many(ids_b, runs)
        assert observable_state(single) == observable_state(batched)
        assert single.stop_trace() == batched.stop_trace()
        for bid_s, bid_b in zip(ids_s, ids_b):
            assert single.peek(bid_s).tobytes() == batched.peek(bid_b).tobytes()

    @pytest.mark.parametrize(
        "runs,nblocks",
        [
            ([blk(5), blk(8)], 2),  # a non-final run ends in a partial block
            ([blk(8), blk(8)], 3),  # the runs fill fewer blocks than given
            ([blk(8), blk(9)], 2),  # ... or more
        ],
        ids=["partial-non-final", "too-few-records", "too-many-records"],
    )
    def test_bad_run_shape_charges_and_stores_nothing(self, runs, nblocks):
        d = Disk(8)
        ids = d.allocate(nblocks)
        d.start_trace()
        with pytest.raises(BlockSizeError):
            d.write_many(ids, runs)
        assert d.counters.total == 0 and d.stop_trace() == []
        assert all(len(d.peek(bid)) == 0 for bid in ids)

    def test_bare_array_payload_rejected(self):
        d = Disk(8)
        ids = d.allocate(1)
        with pytest.raises(TypeError):
            d.write_many(ids, blk(8))
        assert d.counters.total == 0


class TestArenaLayout:
    def test_freed_bucket_leaves_no_block_in_its_arenas(self):
        # Each bucket's run of a chunk's batched write is its own arena:
        # freeing one bucket file leaves no live block pinning its bytes.
        from repro.alg.distribute import distribute_by_pivots
        from repro.em.records import sort_records
        from repro.workloads import load_input, random_permutation

        mach = Machine(memory=256, block=8)
        recs = random_permutation(2000, seed=4)
        f = load_input(mach, recs)
        buckets = distribute_by_pivots(mach, f, sort_records(recs)[[300, 900, 1500]])
        blocks = mach.disk._blocks
        for victim in buckets:
            arenas = {id(blocks[bid][0]) for bid in victim.block_ids}
            victim.free()
            assert all(id(arena) not in arenas for arena, _, _ in blocks.values())


class TestEMFileBatchedOps:
    def test_read_range_matches_per_block_reads(self):
        m1 = Machine(memory=256, block=8)
        m2 = Machine(memory=256, block=8)
        recs = blk(45)
        f1 = EMFile.from_records(m1, recs, counted=False)
        f2 = EMFile.from_records(m2, recs, counted=False)
        m1.disk.start_trace()
        m2.disk.start_trace()

        parts = [f1.read_block(i) for i in range(1, 4)]
        out = f2.read_range(1, 4)

        assert np.array_equal(composite(np.concatenate(parts)), composite(out))
        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert m1.disk.stop_trace() == m2.disk.stop_trace()

    def test_read_range_whole_file_and_empty_range(self):
        mach = Machine(memory=256, block=8)
        f = EMFile.from_records(mach, blk(20), counted=False)
        mach.reset_counters()
        assert np.array_equal(f.read_range(0, f.num_blocks)["key"], np.arange(20))
        assert mach.io.reads == f.num_blocks
        assert len(f.read_range(2, 2)) == 0

    def test_read_range_bounds_checked(self):
        mach = Machine(memory=256, block=8)
        f = EMFile.from_records(mach, blk(20), counted=False)
        for start, stop in [(-1, 2), (0, 4), (2, 1)]:
            with pytest.raises(FileError):
                f.read_range(start, stop)

    def test_append_blocks_matches_append_block(self):
        m1 = Machine(memory=256, block=8)
        m2 = Machine(memory=256, block=8)
        data = blk(21)
        f1 = EMFile(m1)
        for start in range(0, len(data), 8):
            f1.append_block(data[start : start + 8])
        f2 = EMFile(m2)
        f2.append_blocks(data)
        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert f1.num_blocks == f2.num_blocks == 3
        assert np.array_equal(f1.to_numpy()["key"], f2.to_numpy()["key"])

    def test_append_blocks_requires_full_last_block(self):
        mach = Machine(memory=256, block=8)
        f = EMFile(mach)
        f.append_blocks(blk(5))  # partial last block
        with pytest.raises(FileError):
            f.append_blocks(blk(8))

    def test_append_blocks_does_not_leak_on_failure(self):
        mach = Machine(memory=256, block=8)
        f = EMFile(mach)
        live = mach.disk.live_blocks
        with pytest.raises(FileError):
            f.append_blocks(np.zeros(4))  # wrong dtype
        assert mach.disk.live_blocks == live
        assert f.num_blocks == 0

    def test_from_records_counted_parity(self):
        mach = Machine(memory=256, block=8)
        f = EMFile.from_records(mach, blk(30), counted=True)
        assert mach.io.writes == f.num_blocks == 4
        assert mach.io.reads == 0
        assert np.array_equal(f.to_numpy()["key"], np.arange(30))

    @staticmethod
    def _runs_files(mach):
        """Files with partial last blocks, an empty file, and a file
        written in several runs (one batch, then two appends)."""
        several = EMFile.from_records(mach, blk(16, 100), counted=False)
        with mach.disk.uncounted():
            several.append_blocks(blk(8, 116))
            several.append_blocks(blk(5, 124))
        return [
            EMFile.from_records(mach, blk(21), counted=False),
            EMFile(mach),
            several,
            EMFile.from_records(mach, blk(3, 200), counted=False),
        ]

    def test_read_runs_matches_per_file_read_range(self):
        m1 = Machine(memory=256, block=8)
        m2 = Machine(memory=256, block=8)
        files1, files2 = self._runs_files(m1), self._runs_files(m2)
        m1.disk.start_trace()
        m2.disk.start_trace()
        with m1.phase("runs"):
            parts = [f.read_range(0, f.num_blocks) for f in files1]
        with m2.phase("runs"):
            out = read_runs(files2)
        assert np.array_equal(composite(np.concatenate(parts)), composite(out))
        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert m2.io.reads == sum(f.num_blocks for f in files2) == 8
        assert m1.disk.stop_trace() == m2.disk.stop_trace()

    def test_read_runs_matches_per_block_reads(self):
        m1 = Machine(memory=256, block=8)
        m2 = Machine(memory=256, block=8)
        f1 = self._runs_files(m1)[2]
        f2 = self._runs_files(m2)[2]
        m1.disk.start_trace()
        m2.disk.start_trace()
        with m1.phase("whole"):
            parts = [f1.read_block(i) for i in range(f1.num_blocks)]
        with m2.phase("whole"):
            out = read_runs([f2])
        assert np.array_equal(composite(np.concatenate(parts)), composite(out))
        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert m1.disk.stop_trace() == m2.disk.stop_trace()

    def test_read_runs_of_nothing_is_empty(self):
        mach = Machine(memory=256, block=8)
        assert len(read_runs([])) == 0
        assert len(read_runs([EMFile(mach), EMFile(mach)])) == 0
        assert mach.io.reads == 0

    def test_read_runs_rejects_freed_or_foreign_file_before_charging(self):
        mach = Machine(memory=256, block=8)
        other = Machine(memory=256, block=8)
        live = EMFile.from_records(mach, blk(20), counted=False)
        freed = EMFile.from_records(mach, blk(20), counted=False)
        freed.free()
        foreign = EMFile.from_records(other, blk(20), counted=False)
        mach.disk.start_trace()
        for files in ([live, freed], [live, foreign]):
            with pytest.raises(FileError):
                read_runs(files)
        assert mach.io.reads == other.io.reads == 0
        assert mach.disk.stop_trace() == []


class TestScanEquivalence:
    def test_full_scan_counters_equal_per_block_scan(self):
        from repro.em import scan_chunks

        m1 = Machine(memory=512, block=8)
        m2 = Machine(memory=512, block=8)
        recs = blk(333)
        f1 = EMFile.from_records(m1, recs, counted=False)
        f2 = EMFile.from_records(m2, recs, counted=False)
        m1.disk.start_trace()
        m2.disk.start_trace()

        with m1.phase("scan"):
            got1 = [f1.read_block(i) for i in range(f1.num_blocks)]
        with m2.phase("scan"):
            with scan_chunks(f2, m2.load_limit, "scan") as chunks:
                got2 = list(chunks)

        assert observable_state(m1.disk) == observable_state(m2.disk)
        assert m1.disk.stop_trace() == m2.disk.stop_trace()
        assert np.array_equal(
            composite(np.concatenate(got1)), composite(np.concatenate(got2))
        )
