"""Tests for §5.2 approximate K-partitioning (all three variants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import check_partitioned
from repro.core.partitioning import (
    approximate_partition,
    left_grounded_partition,
    right_grounded_partition,
    two_sided_partition,
)
from repro.em import Machine, SpecError
from repro.workloads import few_distinct, load_input, random_permutation


class TestRightGrounded:
    @given(
        n=st.integers(2, 2000),
        k_frac=st.floats(0.0, 1.0),
        a_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_instances(self, n, k_frac, a_frac, seed):
        mach = Machine(memory=256, block=8)
        k = 1 + int(k_frac * (n - 1))
        a = int(a_frac * (n // k))
        recs = random_permutation(n, seed=seed)
        f = load_input(mach, recs)
        pf = right_grounded_partition(mach, f, k, a)
        check_partitioned(recs, pf, a, n, k)
        pf.free()

    def test_first_partitions_have_exact_size_a(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(1000, seed=1)
        f = load_input(mach, recs)
        pf = right_grounded_partition(mach, f, 5, 100)
        assert pf.partition_sizes == [100, 100, 100, 100, 600]

    def test_k1_single_partition(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(64, seed=2)
        f = load_input(mach, recs)
        pf = right_grounded_partition(mach, f, 1, 64)
        assert pf.partition_sizes == [64]
        check_partitioned(recs, pf, 64, 64, 1)

    def test_a0_empty_prefix_partitions(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(64, seed=3)
        f = load_input(mach, recs)
        pf = right_grounded_partition(mach, f, 4, 0)
        assert pf.partition_sizes == [0, 0, 0, 64]

    def test_must_read_every_block(self):
        # §3: right-grounded partitioning must see every element.
        mach = Machine(memory=4096, block=64)
        recs = random_permutation(20_000, seed=4)
        f = load_input(mach, recs)
        mach.disk.start_trace()
        pf = right_grounded_partition(mach, f, 16, 100)
        read = {bid for op, bid in mach.disk.stop_trace() if op == "r"}
        assert set(f.block_ids) <= read
        pf.free()


class TestLeftGrounded:
    @given(
        n=st.integers(2, 2000),
        k_frac=st.floats(0.0, 1.0),
        b_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_instances(self, n, k_frac, b_frac, seed):
        mach = Machine(memory=256, block=8)
        k = 1 + int(k_frac * (n - 1))
        b_min = -(-n // k)
        b = b_min + int(b_frac * (n - b_min))
        recs = random_permutation(n, seed=seed)
        f = load_input(mach, recs)
        pf = left_grounded_partition(mach, f, k, b)
        check_partitioned(recs, pf, 0, b, k)
        pf.free()

    def test_padding_with_empty_partitions(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(100, seed=5)
        f = load_input(mach, recs)
        pf = left_grounded_partition(mach, f, 10, 50)
        assert pf.partition_sizes == [50, 50] + [0] * 8

    def test_near_equal_split(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(103, seed=6)
        f = load_input(mach, recs)
        pf = left_grounded_partition(mach, f, 4, 26)
        assert sorted(pf.partition_sizes, reverse=True) == [26, 26, 26, 25]


class TestTwoSided:
    @given(
        n=st.integers(4, 1500),
        k_frac=st.floats(0.0, 1.0),
        a_frac=st.floats(0.0, 1.0),
        b_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 200),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_instances(self, n, k_frac, a_frac, b_frac, seed):
        mach = Machine(memory=256, block=8)
        k = 2 + int(k_frac * (n // 2 - 2))
        a = max(1, int(a_frac * (n // k)))
        b = max(-(-n // k), a)
        b = b + int(b_frac * (n - 1 - b))
        if b >= n:
            b = n - 1
        if a * k > n or b * k < n or b < 1:
            return
        recs = random_permutation(n, seed=seed)
        f = load_input(mach, recs)
        pf = two_sided_partition(mach, f, k, a, b)
        check_partitioned(recs, pf, a, b, k)
        pf.free()

    def test_low_partitions_have_size_a(self):
        mach = Machine(memory=4096, block=64)
        n, k = 40_000, 32
        a, b = n // (4 * k), 4 * (n // k)
        recs = random_permutation(n, seed=7)
        f = load_input(mach, recs)
        pf = two_sided_partition(mach, f, k, a, b)
        k_prime = (b * k - n) // (b - a)
        assert pf.partition_sizes[:k_prime] == [a] * k_prime
        check_partitioned(recs, pf, a, b, k)

    def test_duplicates(self):
        mach = Machine(memory=256, block=8)
        recs = few_distinct(900, seed=8, n_distinct=4)
        f = load_input(mach, recs)
        pf = two_sided_partition(mach, f, 6, 30, 500)
        check_partitioned(recs, pf, 30, 500, 6)


class TestDispatchAndHygiene:
    def test_dispatch(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(400, seed=9)
        f = load_input(mach, recs)
        for a, b in [(50, 400), (0, 200), (40, 250)]:
            pf = approximate_partition(mach, f, 4, a, b)
            check_partitioned(recs, pf, a, b, 4)
            pf.free()

    def test_invalid_params(self):
        mach = Machine(memory=256, block=8)
        f = load_input(mach, random_permutation(100, seed=10))
        with pytest.raises(SpecError):
            approximate_partition(mach, f, 10, 11, 100)
        with pytest.raises(SpecError):
            approximate_partition(mach, f, 10, 0, 9)

    def test_no_leaks(self):
        mach = Machine(memory=4096, block=64)
        recs = random_permutation(30_000, seed=11)
        f = load_input(mach, recs)
        pf = two_sided_partition(mach, f, 16, 400, 8000)
        assert mach.memory.in_use == 0
        assert mach.memory.peak <= mach.M
        pf.free()
        assert mach.disk.live_blocks == f.num_blocks
