"""Tests for randomized sampling and Las Vegas splitters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alg.randomized import block_sample, randomized_splitters, reservoir_sample
from repro.analysis.verify import check_splitters
from repro.bounds.probabilistic import rank_error_for_sample, sample_size_for_window
from repro.em import Machine, SpecError, composite
from repro.workloads import load_input, random_permutation, sorted_keys


class TestProbabilisticCalculus:
    def test_sample_size_monotonicity(self):
        n, k = 10**6, 64
        loose = sample_size_for_window(n, k, n // (2 * k), 2 * n // k, 0.05)
        tight = sample_size_for_window(
            n, k, int(0.9 * n / k), int(1.1 * n / k), 0.05
        )
        assert tight > loose
        stricter = sample_size_for_window(n, k, n // (2 * k), 2 * n // k, 0.001)
        assert stricter > loose

    def test_no_slack_rejected(self):
        with pytest.raises(ValueError):
            sample_size_for_window(1000, 10, 100, 100, 0.05)

    def test_rank_error_shrinks_with_sample(self):
        e1 = rank_error_for_sample(10**6, 1000, 0.05, 64)
        e2 = rank_error_for_sample(10**6, 100_000, 0.05, 64)
        assert e2 < e1

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_error_for_sample(100, 0, 0.05, 4)
        with pytest.raises(ValueError):
            rank_error_for_sample(100, 10, 1.5, 4)


class TestReservoir:
    def test_exact_size_and_membership(self):
        mach = Machine(memory=1024, block=16)
        recs = random_permutation(5000, seed=1)
        f = load_input(mach, recs)
        sample = reservoir_sample(mach, f, 200, seed=2)
        assert len(sample) == 200
        assert set(composite(sample).tolist()) <= set(composite(recs).tolist())
        assert len(np.unique(composite(sample))) == 200  # without replacement

    def test_one_scan_io(self):
        mach = Machine(memory=1024, block=16)
        n = 8000
        f = load_input(mach, random_permutation(n, seed=3))
        mach.reset_counters()
        reservoir_sample(mach, f, 100, seed=4)
        assert mach.io.total == f.num_blocks

    def test_uniformity_rough(self):
        # Mean of a 500-sample from keys 0..9999 should land near 5000.
        mach = Machine(memory=2048, block=16)
        recs = random_permutation(10_000, seed=5)
        f = load_input(mach, recs)
        means = []
        for seed in range(5):
            s = reservoir_sample(mach, f, 500, seed=seed)
            means.append(float(s["key"].mean()))
        assert abs(np.mean(means) - 4999.5) < 300

    def test_sample_whole_file(self):
        mach = Machine(memory=1024, block=16)
        recs = random_permutation(300, seed=6)
        f = load_input(mach, recs)
        s = reservoir_sample(mach, f, 300, seed=7)
        assert set(composite(s).tolist()) == set(composite(recs).tolist())

    def test_validation(self):
        mach = Machine(memory=1024, block=16)
        f = load_input(mach, random_permutation(100, seed=8))
        with pytest.raises(SpecError):
            reservoir_sample(mach, f, 0)
        with pytest.raises(SpecError):
            reservoir_sample(mach, f, 101)


class TestBlockSample:
    def test_cheap_io(self):
        mach = Machine(memory=1024, block=16)
        n = 8000
        f = load_input(mach, random_permutation(n, seed=9))
        mach.reset_counters()
        s = block_sample(mach, f, 64, seed=10)
        assert len(s) == 64
        assert mach.io.total == 4  # ceil(64/16) blocks

    def test_clustered_bias_on_sorted_input(self):
        # On sorted data a block sample covers only a few key ranges —
        # its key-range spread is far below a uniform sample's.
        mach = Machine(memory=2048, block=16)
        n = 16_000
        recs = sorted_keys(n)
        f = load_input(mach, recs)
        bs = block_sample(mach, f, 64, seed=11)
        distinct_blocks = len(np.unique(np.asarray(bs["key"]) // 16))
        assert distinct_blocks <= 4  # all samples from <= 4 key clusters


class TestRandomizedSplitters:
    @given(seed=st.integers(0, 30))
    @settings(max_examples=10, deadline=None)
    def test_output_always_valid(self, seed):
        mach = Machine(memory=2048, block=16)
        n, k = 6000, 8
        a, b = n // (2 * k), 2 * n // k
        recs = random_permutation(n, seed=seed)
        f = load_input(mach, recs)
        splitters, attempts = randomized_splitters(
            mach, f, k, a, b, delta=0.1, seed=seed
        )
        check_splitters(recs, splitters, a, b, k)
        # check_splitters sorts first; the output itself must be ordered
        assert np.all(np.diff(composite(splitters)) > 0)
        assert attempts >= 1

    def test_usually_one_attempt(self):
        mach = Machine(memory=4096, block=64)
        n, k = 40_000, 8
        recs = random_permutation(n, seed=12)
        f = load_input(mach, recs)
        _, attempts = randomized_splitters(
            mach, f, k, n // (2 * k), 2 * n // k, delta=0.05, seed=13
        )
        assert attempts == 1

    def test_k1(self):
        mach = Machine(memory=1024, block=16)
        f = load_input(mach, random_permutation(100, seed=14))
        splitters, attempts = randomized_splitters(mach, f, 1, 0, 100)
        assert len(splitters) == 0

    def test_too_tight_window_raises(self):
        mach = Machine(memory=1024, block=16)
        n, k = 2000, 8
        f = load_input(mach, random_permutation(n, seed=15))
        with pytest.raises((SpecError, ValueError)):
            randomized_splitters(mach, f, k, n // k, n // k, delta=0.05)

    def test_no_leaks(self):
        mach = Machine(memory=4096, block=64)
        f = load_input(mach, random_permutation(20_000, seed=16))
        randomized_splitters(mach, f, 16, 300, 5000, delta=0.1, seed=17)
        assert mach.memory.in_use == 0
        assert mach.disk.live_blocks == f.num_blocks
