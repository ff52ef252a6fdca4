"""Unit and property tests for multi-way distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alg.distribute import distribute_by_pivots
from repro.em import Machine, MemoryBudgetError, composite
from repro.em.records import make_records, sort_records
from repro.workloads import load_input, random_permutation


class TestDistribute:
    @given(
        n=st.integers(0, 600),
        n_pivots=st.integers(1, 12),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_distribution_is_ordered_partition(self, n, n_pivots, seed):
        mach = Machine(memory=256, block=8)
        rng = np.random.default_rng(seed)
        recs = make_records(rng.integers(0, 100, size=n))
        f = load_input(mach, recs)
        pool = sort_records(recs)
        if len(pool) == 0:
            pivot_recs = pool
        else:
            pos = np.unique(rng.integers(0, len(pool), size=min(n_pivots, len(pool))))
            pivot_recs = pool[pos]
        buckets = distribute_by_pivots(mach, f, pivot_recs)
        assert len(buckets) == len(pivot_recs) + 1
        # Content: union is a permutation of the input.
        parts = [b.to_numpy() for b in buckets]
        got = np.sort(composite(np.concatenate(parts))) if n else []
        assert np.array_equal(got, np.sort(composite(recs)))
        # Ordering: bucket i entirely below bucket j for i < j.
        prev_max = None
        for p in parts:
            if len(p) == 0:
                continue
            comps = composite(p)
            if prev_max is not None:
                assert comps.min() > prev_max
            prev_max = int(comps.max())
        # Pivot i is the maximum of its bucket (when the bucket is non-empty).
        for i, pr in enumerate(pivot_recs):
            if len(parts[i]):
                assert composite(parts[i]).max() <= int(
                    composite(pivot_recs[i : i + 1])[0]
                )

    def test_io_cost_one_pass(self):
        mach = Machine(memory=256, block=8)
        recs = random_permutation(800, seed=7)
        f = load_input(mach, recs)
        pool = sort_records(recs)
        pivots = pool[[200, 400, 600]]
        mach.reset_counters()
        buckets = distribute_by_pivots(mach, f, pivots)
        out_blocks = sum(b.num_blocks for b in buckets)
        assert mach.io.reads == f.num_blocks
        assert mach.io.writes == out_blocks

    def test_unsorted_pivots_rejected(self):
        mach = Machine(memory=256, block=8)
        f = load_input(mach, random_permutation(100, seed=8))
        bad = make_records(np.array([5, 3]))
        with pytest.raises(ValueError):
            distribute_by_pivots(mach, f, bad)

    def test_too_many_buckets_hits_memory_budget(self):
        mach = Machine(memory=64, block=8)  # at most ~7 writers fit
        recs = random_permutation(200, seed=9)
        f = load_input(mach, recs)
        pivots = sort_records(recs)[::10]
        with pytest.raises(MemoryBudgetError):
            distribute_by_pivots(mach, f, pivots)
        assert mach.memory.in_use == 0  # everything released on failure

    def test_failure_frees_disk(self):
        mach = Machine(memory=64, block=8)
        recs = random_permutation(200, seed=10)
        f = load_input(mach, recs)
        live = mach.disk.live_blocks
        pivots = sort_records(recs)[::10]
        with pytest.raises(MemoryBudgetError):
            distribute_by_pivots(mach, f, pivots)
        assert mach.disk.live_blocks == live
