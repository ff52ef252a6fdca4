"""Tests for the §3 reduction (precise partitioning via approximate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alg.multipartition import multi_partition
from repro.analysis.verify import check_partitioned
from repro.core.reduction import precise_partition_via_approx
from repro.em import Machine, SpecError
from repro.workloads import load_input, random_permutation


def lopsided_solver(machine, file, k, b):
    """Approximate solver with deliberately uneven (but legal) sizes."""
    n = len(file)
    rng = np.random.default_rng(99)
    sizes = []
    remaining = n
    while remaining > 0:
        take = int(min(remaining, rng.integers(1, b + 1)))
        sizes.append(take)
        remaining -= take
    return multi_partition(machine, file, sizes)


class TestCorrectness:
    @given(
        blocks=st.integers(1, 60),
        b_factor=st.sampled_from([1, 2, 4, 10]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_instances(self, blocks, b_factor, seed):
        mach = Machine(memory=256, block=8)
        b = 8 * b_factor
        n = blocks * b
        recs = random_permutation(n, seed=seed)
        f = load_input(mach, recs)
        pf = precise_partition_via_approx(mach, f, b)
        check_partitioned(recs, pf, b, b, n // b)
        pf.free()

    def test_with_lopsided_solver(self):
        mach = Machine(memory=256, block=8)
        n, b = 2000, 100
        recs = random_permutation(n, seed=1)
        f = load_input(mach, recs)
        pf = precise_partition_via_approx(mach, f, b, approx_solver=lopsided_solver)
        check_partitioned(recs, pf, b, b, n // b)

    def test_disk_resident_residue_path(self):
        mach = Machine(memory=256, block=8)
        n, b = 2400, 200  # 2b + 3B > M forces the external sweep
        assert 2 * b + 3 * mach.B > mach.M
        recs = random_permutation(n, seed=2)
        f = load_input(mach, recs)
        pf = precise_partition_via_approx(mach, f, b)
        check_partitioned(recs, pf, b, b, n // b)

    def test_single_partition(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(64, seed=3)
        f = load_input(mach, recs)
        pf = precise_partition_via_approx(mach, f, 64)
        assert pf.partition_sizes == [64]

    def test_b_one(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(40, seed=4)
        f = load_input(mach, recs)
        pf = precise_partition_via_approx(mach, f, 1)
        check_partitioned(recs, pf, 1, 1, 40)


class TestValidation:
    def test_non_divisible_rejected(self):
        mach = Machine(memory=256, block=8)
        f = load_input(mach, random_permutation(100, seed=5))
        with pytest.raises(SpecError):
            precise_partition_via_approx(mach, f, 33)

    def test_bad_b_rejected(self):
        mach = Machine(memory=256, block=8)
        f = load_input(mach, random_permutation(100, seed=6))
        with pytest.raises(SpecError):
            precise_partition_via_approx(mach, f, 0)

    def test_oversized_solver_output_rejected(self):
        mach = Machine(memory=256, block=8)
        f = load_input(mach, random_permutation(100, seed=7))

        def bad_solver(machine, file, k, b):
            return multi_partition(machine, file, [len(file)])

        with pytest.raises(SpecError):
            precise_partition_via_approx(mach, f, 10, approx_solver=bad_solver)


class TestCost:
    def test_sweep_is_linear_in_memory_regime(self):
        mach = Machine(memory=4096, block=64)
        n, b = 40_000, 500
        f = load_input(mach, random_permutation(n, seed=8))
        mach.reset_counters()
        pf = precise_partition_via_approx(mach, f, b)
        from repro.analysis import phase_total

        sweep = phase_total(mach.io, "reduction-sweep")
        assert sweep <= 4 * (n // 64)
        pf.free()

    def test_no_leaks(self):
        mach = Machine(memory=4096, block=64)
        f = load_input(mach, random_permutation(20_000, seed=9))
        pf = precise_partition_via_approx(mach, f, 1000)
        assert mach.memory.in_use == 0
        pf.free()
        assert mach.disk.live_blocks == f.num_blocks


def adversarial_order_solver(machine, file, k, b):
    """Partitions are correct as sets but each partition's records are
    written in *reverse* order — the smallest element arrives last.
    Regression guard: the sweep must append a whole partition before
    splitting the residue (splitting mid-partition emits wrong elements
    for exactly this layout)."""
    from repro.alg.partitioned import PartitionedFile
    from repro.em import EMFile
    from repro.em.records import sort_records

    data = sort_records(file.to_numpy())[::-1]  # descending
    n = len(data)
    sizes = []
    remaining = n
    while remaining > 0:
        take = min(b, remaining)
        sizes.append(take)
        remaining -= take
    segs, seg_part = [], []
    offset = n
    for i, size in enumerate(sizes):
        # partition i holds the i-th *smallest* range, records descending.
        chunk = data[offset - size : offset]
        segs.append(EMFile.from_records(machine, chunk, counted=True))
        seg_part.append(i)
        offset -= size
    return PartitionedFile(machine, segs, seg_part, sizes)


class TestSweepOrderRegression:
    def test_descending_within_partition(self):
        mach = Machine(memory=4096, block=64)
        n, b = 12_800, 512
        recs = random_permutation(n, seed=77)
        f = load_input(mach, recs)
        pf = precise_partition_via_approx(
            mach, f, b, approx_solver=adversarial_order_solver
        )
        check_partitioned(recs, pf, b, b, n // b)
