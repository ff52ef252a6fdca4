"""Unit tests for the machine and its memory accountant."""

import pytest

from repro.em import LeaseError, Machine, MemoryBudgetError
from repro.em.machine import MemoryAccountant


class TestMachineConstruction:
    def test_parameters(self):
        m = Machine(memory=4096, block=64)
        assert (m.M, m.B, m.fanout) == (4096, 64, 64)

    def test_requires_m_at_least_2b(self):
        with pytest.raises(ValueError):
            Machine(memory=100, block=64)

    def test_minimal_machine(self):
        m = Machine(memory=2, block=1)
        assert m.fanout == 2

    def test_bad_block(self):
        with pytest.raises(ValueError):
            Machine(memory=8, block=0)


class TestAccountant:
    def test_lease_and_release(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(60).acquire()
        assert acc.in_use == 60
        assert acc.available == 40
        lease.release()
        assert acc.in_use == 0

    def test_budget_enforced(self):
        acc = MemoryAccountant(100)
        acc.lease(80).acquire()
        with pytest.raises(MemoryBudgetError) as ei:
            acc.lease(21).acquire()
        assert ei.value.requested == 21
        assert ei.value.in_use == 80

    def test_exact_fit_allowed(self):
        acc = MemoryAccountant(100)
        acc.lease(100).acquire()
        assert acc.available == 0

    def test_double_release_fails(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(10).acquire()
        lease.release()
        with pytest.raises(LeaseError):
            lease.release()

    def test_context_manager_releases(self):
        acc = MemoryAccountant(100)
        with acc.lease(50):
            assert acc.in_use == 50
        assert acc.in_use == 0

    def test_context_manager_releases_on_error(self):
        acc = MemoryAccountant(100)
        with pytest.raises(RuntimeError):
            with acc.lease(50):
                raise RuntimeError("boom")
        assert acc.in_use == 0

    def test_resize_up_and_down(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(10).acquire()
        lease.resize(90)
        assert acc.in_use == 90
        lease.resize(5)
        assert acc.in_use == 5

    def test_resize_over_budget_fails(self):
        acc = MemoryAccountant(100)
        acc.lease(50).acquire()
        lease = acc.lease(10).acquire()
        with pytest.raises(MemoryBudgetError):
            lease.resize(60)
        assert lease.size == 10

    def test_resize_error_reports_new_size_and_label(self):
        # Regression: the error used to report the resize *delta* as the
        # requested size (even a negative number for shrinking leases),
        # not the requested new size or which lease asked.
        acc = MemoryAccountant(100)
        acc.lease(50).acquire()
        lease = acc.lease(10, "gather").acquire()
        with pytest.raises(MemoryBudgetError) as ei:
            lease.resize(60)
        assert ei.value.requested == 60
        assert ei.value.in_use == 60
        assert ei.value.capacity == 100
        assert ei.value.label == "gather"
        assert "gather" in str(ei.value)
        assert " 60 " in str(ei.value)

    def test_lease_error_carries_label(self):
        acc = MemoryAccountant(100)
        with pytest.raises(MemoryBudgetError) as ei:
            acc.lease(200, "huge-buffer").acquire()
        assert ei.value.label == "huge-buffer"
        assert "huge-buffer" in str(ei.value)

    def test_resize_after_release_fails(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(10).acquire()
        lease.release()
        with pytest.raises(LeaseError):
            lease.resize(20)

    def test_peak_tracking(self):
        acc = MemoryAccountant(100)
        a = acc.lease(70).acquire()
        a.release()
        acc.lease(20).acquire()
        assert acc.peak == 70
        acc.reset_peak()
        assert acc.peak == 20

    def test_zero_lease(self):
        acc = MemoryAccountant(100)
        with acc.lease(0):
            assert acc.in_use == 0

    def test_negative_lease_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccountant(100).lease(-1)


class TestLeaseEntry:
    """A lease charges when it is entered or acquired, never before."""

    def test_lease_never_entered_charges_nothing(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(60, "idle")
        assert acc.in_use == 0 and acc.peak == 0
        with acc.lease(100):  # all of M: fits only as "idle" holds nothing
            assert acc.in_use == 100
        assert not lease.acquired and not lease.released

    def test_entering_charges_and_budget_is_checked_there(self):
        acc = MemoryAccountant(100)
        held = acc.lease(80, "held")
        big = acc.lease(21, "big")
        with held:
            assert acc.in_use == 80
            with pytest.raises(MemoryBudgetError) as ei:
                big.__enter__()
        assert (ei.value.requested, ei.value.in_use, ei.value.label) == (
            21, 80, "big",
        )
        assert acc.in_use == 0 and not big.acquired

    def test_acquire_returns_the_lease_and_charges_once(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(30, "owner")
        assert lease.acquire() is lease and acc.in_use == 30
        with pytest.raises(LeaseError):
            lease.acquire()
        with pytest.raises(LeaseError):
            lease.__enter__()
        assert acc.in_use == 30
        lease.release()
        with pytest.raises(LeaseError):
            lease.acquire()
        assert acc.in_use == 0

    def test_resize_and_release_need_an_acquired_lease(self):
        acc = MemoryAccountant(100)
        lease = acc.lease(10, "idle")
        with pytest.raises(LeaseError):
            lease.resize(20)
        with pytest.raises(LeaseError):
            lease.release()
        assert acc.in_use == 0 and lease.size == 10


class TestMeasure:
    def test_measure_counts_inner_ios(self):
        m = Machine(memory=64, block=8)
        (bid,) = m.disk.allocate(1)
        from repro.em.records import make_records
        import numpy as np

        with m.measure() as cost:
            m.disk.write(bid, make_records(np.arange(4)))
            m.disk.read(bid)
        assert (cost.reads, cost.writes, cost.total) == (1, 1, 2)

    def test_measure_with_label(self):
        m = Machine(memory=64, block=8)
        (bid,) = m.disk.allocate(1)
        from repro.em.records import make_records
        import numpy as np

        with m.measure("phase-x") as cost:
            m.disk.write(bid, make_records(np.arange(2)))
        assert cost.by_phase == {"phase-x": (0, 1)}

    def test_reset_counters(self):
        m = Machine(memory=64, block=8)
        (bid,) = m.disk.allocate(1)
        from repro.em.records import make_records
        import numpy as np

        m.disk.write(bid, make_records(np.arange(2)))
        m.reset_counters()
        assert m.io.total == 0
