"""Unit tests for the simulated block device."""

import numpy as np
import pytest

from repro.em import BadBlockError, BlockSizeError, Disk, IOCounters
from repro.em.records import make_records


def blk(n, start=0):
    return make_records(np.arange(start, start + n))


class TestAllocation:
    def test_allocate_returns_distinct_ids(self):
        d = Disk(8)
        ids = d.allocate(5)
        assert len(set(ids)) == 5
        assert d.live_blocks == 5

    def test_allocation_is_free(self):
        d = Disk(8)
        d.allocate(10)
        assert d.counters.total == 0

    def test_free_then_read_fails(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.free([bid])
        with pytest.raises(BadBlockError):
            d.read(bid)

    def test_double_free_fails(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.free([bid])
        with pytest.raises(BadBlockError):
            d.free([bid])

    def test_free_is_atomic_on_bad_id(self):
        # Regression: a bad id mid-list used to leave earlier blocks
        # already deleted; now nothing is freed unless every id is valid.
        d = Disk(8)
        ids = d.allocate(3)
        with pytest.raises(BadBlockError):
            d.free([ids[0], 10_000, ids[1]])
        assert d.live_blocks == 3
        for bid in ids:
            d.peek(bid)  # still allocated

    def test_free_rejects_duplicate_ids_atomically(self):
        d = Disk(8)
        ids = d.allocate(2)
        with pytest.raises(BadBlockError):
            d.free([ids[0], ids[1], ids[0]])
        assert d.live_blocks == 2

    def test_peak_blocks(self):
        d = Disk(8)
        ids = d.allocate(4)
        d.free(ids[:2])
        d.allocate(1)
        assert d.peak_blocks == 4

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            Disk(8).allocate(-1)

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            Disk(0)


class TestReadWrite:
    def test_roundtrip(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        data = blk(8)
        d.write(bid, data)
        out = d.read(bid)
        assert np.array_equal(out["key"], data["key"])

    def test_read_returns_copy(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.write(bid, blk(8))
        out = d.read(bid)
        out["key"][0] = 999
        assert d.read(bid)["key"][0] == 0

    def test_write_stores_copy(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        data = blk(8)
        d.write(bid, data)
        data["key"][0] = 999
        assert d.read(bid)["key"][0] == 0

    def test_oversize_write_rejected(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with pytest.raises(BlockSizeError):
            d.write(bid, blk(9))

    def test_partial_block_allowed(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.write(bid, blk(3))
        assert len(d.read(bid)) == 3

    def test_wrong_dtype_rejected(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with pytest.raises(BlockSizeError):
            d.write(bid, np.zeros(4))

    def test_unallocated_write_fails(self):
        with pytest.raises(BadBlockError):
            Disk(8).write(17, blk(1))


class TestCounting:
    def test_read_write_counted(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.write(bid, blk(4))
        d.read(bid)
        d.read(bid)
        assert d.counters.reads == 2
        assert d.counters.writes == 1
        assert d.counters.total == 3

    def test_uncounted_context(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with d.uncounted():
            d.write(bid, blk(4))
            d.read(bid)
        assert d.counters.total == 0

    def test_uncounted_nesting_restores(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with d.uncounted():
            with d.uncounted():
                pass
            d.write(bid, blk(1))
        assert d.counters.total == 0
        d.read(bid)
        assert d.counters.total == 1

    def test_peek_not_counted(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.write(bid, blk(4))
        before = d.counters.total
        d.peek(bid)
        assert d.counters.total == before

    def test_phase_attribution(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with d.phase("setup"):
            d.write(bid, blk(4))
        with d.phase("outer"):
            with d.phase("inner"):
                d.read(bid)
        assert d.counters.by_phase["setup"] == (0, 1)
        # Nested phases are charged to the joined stack path, so the
        # parent's share is recoverable by prefix aggregation.
        assert d.counters.by_phase["outer/inner"] == (1, 0)
        assert "inner" not in d.counters.by_phase
        assert "outer" not in d.counters.by_phase

    def test_phase_path_property_and_slash_rejected(self):
        import pytest

        d = Disk(8)
        assert d.phase_path == ""
        with d.phase("outer"):
            assert d.phase_path == "outer"
            with d.phase("inner"):
                assert d.phase_path == "outer/inner"
            assert d.phase_path == "outer"
        assert d.phase_path == ""
        with pytest.raises(ValueError):
            with d.phase("bad/label"):
                pass

    @pytest.mark.parametrize("label", ["", " ", "a/b", 3, None])
    def test_phase_rejects_malformed_labels(self, label):
        d = Disk(8)
        with pytest.raises(ValueError, match="phase label"):
            with d.phase(label):
                pass
        assert d.phase_path == ""

    def test_reset_counters(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        d.start_trace()
        d.write(bid, blk(1))
        d.read(bid)
        d.reset_counters()
        assert d.counters.total == 0
        assert d.stop_trace() == []

    def test_read_block_tracking(self):
        # The access trace records counted reads only.
        d = Disk(8)
        ids = d.allocate(3)
        for i in ids:
            d.write(i, blk(1))
        d.start_trace()
        d.read(ids[0])
        with d.uncounted():
            d.read(ids[1])
        assert d.stop_trace() == [("r", ids[0])]

    def test_reset_counters_fences_active_trace(self):
        # Regression: reset_counters used to leave pre-reset entries in
        # an active trace, mixing two measurement windows.
        d = Disk(8)
        ids = d.allocate(2)
        for bid in ids:
            with d.uncounted():
                d.write(bid, blk(1))
        d.start_trace()
        d.read(ids[0])
        d.reset_counters()
        d.read(ids[1])
        assert d.stop_trace() == [("r", ids[1])]

    def test_reset_counters_without_trace_stays_untraced(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        with d.uncounted():
            d.write(bid, blk(1))
        d.reset_counters()
        d.read(bid)
        assert d.stop_trace() == []

    def test_snapshot_is_frozen(self):
        d = Disk(8)
        (bid,) = d.allocate(1)
        snap = d.snapshot()
        d.write(bid, blk(1))
        assert snap.total == 0


class TestIOCounters:
    def test_subtraction(self):
        a = IOCounters(reads=5, writes=3, by_phase={"x": (5, 3)})
        b = IOCounters(reads=2, writes=1, by_phase={"x": (2, 1)})
        diff = a - b
        assert (diff.reads, diff.writes) == (3, 2)
        assert diff.by_phase == {"x": (3, 2)}

    def test_subtraction_drops_zero_phases(self):
        a = IOCounters(reads=1, writes=0, by_phase={"x": (1, 0), "y": (0, 0)})
        b = IOCounters(by_phase={"y": (0, 0)})
        assert "y" not in (a - b).by_phase

    def test_copy_independent(self):
        a = IOCounters(reads=1, by_phase={"x": (1, 0)})
        c = a.copy()
        c.by_phase["x"] = (9, 9)
        assert a.by_phase["x"] == (1, 0)
