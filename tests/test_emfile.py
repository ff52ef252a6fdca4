"""Unit tests for EMFile block layout and lifecycle."""

import numpy as np
import pytest

from repro.em import EMFile, FileError, Machine
from repro.em.file import read_runs
from repro.em.records import make_records


@pytest.fixture
def mach():
    return Machine(memory=64, block=8)


def recs(n, start=0):
    return make_records(np.arange(start, start + n))


class TestFromRecords:
    def test_layout_full_blocks(self, mach):
        f = EMFile.from_records(mach, recs(24))
        assert len(f) == 24
        assert f.num_blocks == 3

    def test_layout_partial_last_block(self, mach):
        f = EMFile.from_records(mach, recs(20))
        assert f.num_blocks == 3
        assert len(f.read_block(2)) == 4

    def test_counted_charges_writes(self, mach):
        EMFile.from_records(mach, recs(20))
        assert mach.io.writes == 3
        assert mach.io.reads == 0

    def test_uncounted_is_free(self, mach):
        EMFile.from_records(mach, recs(20), counted=False)
        assert mach.io.total == 0

    def test_empty_file(self, mach):
        f = EMFile.from_records(mach, recs(0))
        assert len(f) == 0
        assert f.num_blocks == 0

    def test_wrong_dtype_rejected(self, mach):
        with pytest.raises(FileError):
            EMFile.from_records(mach, np.zeros(4))


class TestBlockOps:
    def test_read_block_out_of_range(self, mach):
        f = EMFile.from_records(mach, recs(8))
        with pytest.raises(FileError):
            f.read_block(1)

    def test_write_block_roundtrip(self, mach):
        f = EMFile.from_records(mach, recs(16))
        f.write_block(0, recs(8, start=100))
        assert f.read_block(0)["key"][0] == 100

    def test_interior_block_must_be_full(self, mach):
        f = EMFile.from_records(mach, recs(16))
        with pytest.raises(FileError):
            f.write_block(0, recs(4))

    def test_last_block_resize_updates_length(self, mach):
        f = EMFile.from_records(mach, recs(20))
        f.write_block(2, recs(2))
        assert len(f) == 18

    def test_append_block(self, mach):
        f = EMFile.from_records(mach, recs(16))
        f.append_block(recs(5))
        assert len(f) == 21
        assert f.num_blocks == 3

    def test_append_to_partial_fails(self, mach):
        f = EMFile.from_records(mach, recs(20))
        with pytest.raises(FileError):
            f.append_block(recs(8))

    def test_append_empty_is_noop(self, mach):
        f = EMFile.from_records(mach, recs(16))
        f.append_block(recs(0))
        assert f.num_blocks == 2


class TestWholeFile:
    def test_to_numpy_uncounted_default(self, mach):
        data = recs(20)
        f = EMFile.from_records(mach, data)
        mach.reset_counters()
        out = f.to_numpy()
        assert np.array_equal(out["key"], data["key"])
        assert mach.io.total == 0

    def test_read_runs_counts_one_read_per_block(self, mach):
        f = EMFile.from_records(mach, recs(20))
        mach.reset_counters()
        out = read_runs([f])
        assert np.array_equal(out["key"], np.arange(20))
        assert mach.io.reads == 3


class TestLifecycle:
    def test_free_releases_blocks(self, mach):
        f = EMFile.from_records(mach, recs(24))
        live = mach.disk.live_blocks
        f.free()
        assert mach.disk.live_blocks == live - 3

    def test_free_idempotent(self, mach):
        f = EMFile.from_records(mach, recs(8))
        f.free()
        f.free()

    def test_use_after_free_fails(self, mach):
        f = EMFile.from_records(mach, recs(8))
        f.free()
        with pytest.raises(FileError):
            f.read_block(0)
