"""Unit and property tests for buffered streams and the k-way merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em import (
    BlockWriter,
    EMFile,
    FileError,
    Machine,
    StreamError,
    composite,
    copy_file,
    merge_sorted_files,
    scan_chunks,
)
from repro.em.records import make_records, sort_records
from repro.em.streams import BucketWriter


@pytest.fixture
def mach():
    return Machine(memory=256, block=8)


def recs(n, start=0):
    return make_records(np.arange(start, start + n))


class TestBlockReader:
    """``scan_chunks`` one block per step (``chunk_records = B``)."""

    def test_reads_all_blocks(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with scan_chunks(f, mach.B) as reader:
            sizes = [len(b) for b in reader]
        assert sizes == [8, 8, 4]

    def test_holds_block_lease(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with scan_chunks(f, mach.B):
            assert mach.memory.in_use == mach.B
        assert mach.memory.in_use == 0

    def test_lease_released_on_error(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with pytest.raises(RuntimeError):
            with scan_chunks(f, mach.B) as reader:
                for _ in reader:
                    raise RuntimeError("boom")
        assert mach.memory.in_use == 0

    def test_closed_reader_refuses(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with scan_chunks(f, mach.B) as reader:
            it = iter(reader)
            next(it)
            reader.close()
            with pytest.raises(StreamError, match="is closed"):
                next(it)

    def test_close_mid_iteration_releases_lease_immediately(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with scan_chunks(f, mach.B) as reader:
            it = iter(reader)
            next(it)
            assert mach.memory.in_use == mach.B
            reader.close()
            assert mach.memory.in_use == 0
            reader.close()  # idempotent
            assert mach.memory.in_use == 0

    def test_break_out_of_with_block_releases_lease(self, mach):
        f = EMFile.from_records(mach, recs(40))
        with scan_chunks(f, mach.B) as reader:
            for _ in reader:
                break
        assert mach.memory.in_use == 0

    def test_files_stream_as_the_chained_readers(self):
        chained, one = Machine(memory=256, block=8), Machine(memory=256, block=8)
        files_c, files_o = _three_files(chained), _three_files(one)
        chained.disk.start_trace()
        one.disk.start_trace()
        want = []
        with chained.phase("scan"):
            for f in files_c:
                with scan_chunks(f, chained.B, "scan-in") as reader:
                    want += [composite(b).tolist() for b in reader]
        got = []
        with one.phase("scan"), scan_chunks(files_o, one.B, "scan-in") as reader:
            for block in reader:
                # One B-record lease throughout, whichever file is read.
                assert one.memory.in_use == one.B
                got.append(composite(block).tolist())
        assert got == want and len(got) == 5
        assert one.io.reads == chained.io.reads == 5
        assert one.io.by_phase == chained.io.by_phase
        assert one.disk.stop_trace() == chained.disk.stop_trace()
        assert one.memory.peak == chained.memory.peak == one.B
        assert one.memory.in_use == 0

    def test_empty_sequence_leases_and_yields_nothing(self, mach):
        with scan_chunks([], mach.B) as reader:
            assert mach.memory.in_use == 0
            assert list(reader) == []
        assert mach.memory.peak == 0

    def test_closed_multi_file_reader_refuses(self, mach):
        with scan_chunks(_three_files(mach), mach.B) as reader:
            it = iter(reader)
            for _ in range(3):  # into the third file
                next(it)
            reader.close()
            assert mach.memory.in_use == 0
            with pytest.raises(StreamError):
                next(it)

    def test_second_iter_continues_at_the_cursor(self, mach):
        files = _three_files(mach)
        with scan_chunks(files, mach.B) as reader:
            first = []
            for block in reader:
                first.append(int(block["key"][0]))
                if len(first) == 3:  # the first file's last block
                    break
            rest = [int(b["key"][0]) for b in reader]
            assert list(reader) == []
        assert first == [0, 8, 16] and rest == [100, 108]
        assert mach.io.reads == 5


def _three_files(mach):
    """Files of 20, 0 and 13 records (B = 8: 3, 0 and 2 blocks)."""
    return [
        EMFile.from_records(mach, recs(20), counted=False),
        EMFile(mach),
        EMFile.from_records(mach, recs(13, 100), counted=False),
    ]


class TestBlockWriter:
    def test_accumulates_into_blocks(self, mach):
        with BlockWriter(mach) as w:
            w.write(recs(3))
            w.write(recs(3, 3))
            w.write(recs(3, 6))
            f = w.close()
        assert len(f) == 9
        assert f.num_blocks == 2
        assert len(f.read_block(0)) == 8

    def test_records_written_property(self, mach):
        with BlockWriter(mach) as w:
            w.write(recs(10))
            assert w.records_written == 10
            w.close()

    def test_large_single_write(self, mach):
        with BlockWriter(mach) as w:
            w.write(recs(50))
            f = w.close()
        assert len(f) == 50
        assert f.num_blocks == 7

    def test_write_after_close_fails(self, mach):
        with BlockWriter(mach) as w:
            w.close()
            with pytest.raises(StreamError, match="is closed"):
                w.write(recs(1))

    def test_double_close_fails(self, mach):
        with BlockWriter(mach) as w:
            w.close()
            with pytest.raises(StreamError):
                w.close()

    def test_abort_frees_everything(self, mach):
        live = mach.disk.live_blocks
        with BlockWriter(mach) as w:
            w.write(recs(30))
            w.abort()
            assert mach.disk.live_blocks == live
            assert mach.memory.in_use == 0

    def test_context_manager_aborts_on_error(self, mach):
        live = mach.disk.live_blocks
        with pytest.raises(RuntimeError):
            with BlockWriter(mach) as w:
                w.write(recs(30))
                raise RuntimeError("boom")
        assert mach.disk.live_blocks == live

    def test_preserves_order(self, mach):
        with BlockWriter(mach) as w:
            w.write(recs(5, 10))
            w.write(recs(5, 0))
            f = w.close()
        assert list(f.to_numpy()["key"]) == list(range(10, 15)) + list(range(5))


class TestScanChunks:
    def test_chunk_sizes(self, mach):
        f = EMFile.from_records(mach, recs(50))
        with scan_chunks(f, 16) as scan:
            chunks = [len(c) for c in scan]
        assert chunks == [16, 16, 16, 2]

    def test_rounds_down_to_blocks(self, mach):
        f = EMFile.from_records(mach, recs(32))
        with scan_chunks(f, 12) as scan:  # -> one block each
            chunks = [len(c) for c in scan]
        assert chunks == [8, 8, 8, 8]

    def test_leases_during_iteration(self, mach):
        f = EMFile.from_records(mach, recs(50))
        with scan_chunks(f, 16) as gen:
            next(iter(gen))
            assert mach.memory.in_use == 16
            gen.close()
            assert mach.memory.in_use == 0

    def test_break_releases_lease_deterministically(self, mach):
        # Regression: a caller that broke out of the loop used to hold
        # the chunk lease until the generator happened to be GC'd; the
        # context-manager form releases it at the `with` exit, always.
        f = EMFile.from_records(mach, recs(50))
        with scan_chunks(f, 16) as chunks:
            for chunk in chunks:
                assert mach.memory.in_use == 16
                break
        assert mach.memory.in_use == 0

    def test_exception_inside_with_releases_lease(self, mach):
        f = EMFile.from_records(mach, recs(50))
        with pytest.raises(RuntimeError):
            with scan_chunks(f, 16) as chunks:
                for _ in chunks:
                    raise RuntimeError("boom")
        assert mach.memory.in_use == 0

    def test_exhaustion_releases_lease(self, mach):
        f = EMFile.from_records(mach, recs(50))
        with scan_chunks(f, 16) as scanner:
            list(scanner)
            assert scanner.closed
            assert mach.memory.in_use == 0

    def test_closed_stream_with_blocks_left_raises(self, mach):
        f = EMFile.from_records(mach, recs(50))
        with scan_chunks(f, 16) as scanner:
            it = iter(scanner)
            next(it)
            scanner.close()
            assert mach.memory.in_use == 0
            with pytest.raises(StreamError):
                next(it)
        assert mach.io.reads == 2

    def test_chunks_of_several_files_match_per_file_scans(self):
        per_file, one = Machine(memory=256, block=8), Machine(memory=256, block=8)
        files_p, files_o = _three_files(per_file), _three_files(one)
        per_file.disk.start_trace()
        one.disk.start_trace()
        want = []
        with per_file.phase("scan"):
            for f in files_p:
                with scan_chunks(f, 16, "scan-in") as chunks:
                    want += [composite(c).tolist() for c in chunks]
        got = []
        with one.phase("scan"), scan_chunks(files_o, 16, "scan-in") as chunks:
            for chunk in chunks:
                assert one.memory.in_use == 16
                got.append(composite(chunk).tolist())
        # A chunk never spans two files.
        assert [len(c) for c in got] == [16, 4, 13]
        assert got == want
        assert one.io.reads == per_file.io.reads == 5
        assert one.io.by_phase == per_file.io.by_phase
        assert one.disk.stop_trace() == per_file.disk.stop_trace()
        assert one.memory.peak == per_file.memory.peak == 16
        assert one.memory.in_use == 0

    def test_empty_sequence_leases_nothing(self, mach):
        scanner = scan_chunks([], 64)
        assert mach.memory.in_use == 0
        assert list(scanner) == [] and scanner.closed
        assert mach.memory.peak == 0

    def test_files_on_two_machines_rejected_before_anything_is_charged(self):
        m1, m2 = Machine(memory=256, block=8), Machine(memory=256, block=8)
        f1 = EMFile.from_records(m1, recs(20), counted=False)
        f2 = EMFile.from_records(m2, recs(20), counted=False)
        for chunk_records in (8, 16):
            with pytest.raises(FileError):
                scan_chunks([f1, f2], chunk_records)
        for m in (m1, m2):
            assert m.memory.peak == 0 and m.io.reads == 0

    def test_scan_io_count_unchanged_by_batching(self, mach):
        f = EMFile.from_records(mach, recs(50), counted=False)
        mach.reset_counters()
        with scan_chunks(f, 16) as chunks:
            total = sum(len(c) for c in chunks)
        assert total == 50
        assert mach.io.reads == f.num_blocks
        assert mach.io.writes == 0


class TestNeverEntered:
    """A stream or writer takes its lease when its ``with`` block is
    entered: one never entered holds no memory, and reading or writing
    it raises before any I/O or charge."""

    def test_scan_never_entered_leases_and_reads_nothing(self, mach):
        f = EMFile.from_records(mach, recs(20), counted=False)
        for chunk_records in (mach.B, 16):
            scanner = scan_chunks(f, chunk_records)
            assert mach.memory.in_use == 0 and scanner.closed
            with pytest.raises(StreamError, match="never entered"):
                next(iter(scanner))
        assert mach.memory.peak == 0
        assert mach.io.reads == mach.io.writes == 0

    def test_block_writer_never_entered_leases_and_writes_nothing(self, mach):
        w = BlockWriter(mach)
        assert mach.memory.in_use == 0
        with pytest.raises(StreamError, match="never entered"):
            w.write(recs(20))
        with pytest.raises(StreamError, match="never entered"):
            w.close()
        assert mach.memory.peak == 0
        assert mach.io.reads == mach.io.writes == 0 and mach.disk.live_blocks == 0

    def test_bucket_writer_never_entered_leases_and_writes_nothing(self, mach):
        w = BucketWriter(mach, 3)
        assert mach.memory.in_use == 0
        with pytest.raises(StreamError, match="never entered"):
            w.write([(0, recs(20)), (2, recs(5, 20))])
        with pytest.raises(StreamError, match="never entered"):
            w.close()
        assert mach.memory.peak == 0
        assert mach.io.reads == mach.io.writes == 0 and mach.disk.live_blocks == 0

    def test_entering_takes_the_lease_and_exit_returns_it(self, mach):
        f = EMFile.from_records(mach, recs(20), counted=False)
        with BucketWriter(mach, 3), BlockWriter(mach), scan_chunks(f, 16):
            assert mach.memory.in_use == 3 * mach.B + mach.B + 16
        assert mach.memory.in_use == 0


class TestMergeSortedFiles:
    def _merge(self, mach, parts):
        files = [
            EMFile.from_records(mach, sort_records(p), counted=False) for p in parts
        ]
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, files, w)
            out = w.close()
        return out.to_numpy()

    @given(
        data=st.lists(
            st.lists(st.integers(-50, 50), min_size=0, max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_global_sort(self, data):
        mach = Machine(memory=256, block=8)
        uid = 0
        parts = []
        for lst in data:
            keys = np.array(lst, dtype=np.int64)
            parts.append(
                make_records(keys, uids=np.arange(uid, uid + len(keys)))
            )
            uid += len(keys)
        merged = self._merge(mach, parts)
        everything = (
            np.concatenate(parts) if parts else make_records(np.array([]))
        )
        assert np.array_equal(
            composite(merged), np.sort(composite(everything))
        )

    def test_merge_io_is_one_read_per_block(self, mach):
        parts = [recs(40, i * 100) for i in range(3)]
        files = [
            EMFile.from_records(mach, sort_records(p), counted=False) for p in parts
        ]
        mach.reset_counters()
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, files, w)
            out = w.close()
        in_blocks = sum(f.num_blocks for f in files)
        assert mach.io.reads == in_blocks
        assert mach.io.writes == out.num_blocks

    def test_merge_empty_input_list(self, mach):
        with BlockWriter(mach) as w:
            merge_sorted_files(mach, [], w)
            out = w.close()
        assert len(out) == 0

    def test_merge_with_empty_files(self, mach):
        parts = [recs(0), recs(10), recs(0)]
        merged = self._merge(mach, parts)
        assert len(merged) == 10


class TestCopyFile:
    def test_copy_content_and_cost(self, mach):
        f = EMFile.from_records(mach, recs(40), counted=False)
        mach.reset_counters()
        out = copy_file(mach, f)
        assert np.array_equal(out.to_numpy()["key"], f.to_numpy()["key"])
        assert mach.io.reads == f.num_blocks
        assert mach.io.writes == out.num_blocks
