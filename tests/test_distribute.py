"""Unit and property tests for multi-way distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alg.distribute import distribute_by_pivots
from repro.em import BlockWriter, Machine, MemoryBudgetError, composite, scan_chunks
from repro.em.comparisons import cmp_search
from repro.em.records import make_records, sort_records
from repro.workloads import (
    few_distinct,
    load_input,
    random_permutation,
    sorted_keys,
    zipfian_trace,
)


def per_bucket_distribute(machine, file, pivots, label="distribute"):
    """The distribution pass with one :class:`BlockWriter` per bucket,
    as it ran before the batched bucket writer: the reference the
    production pass must match I/O for I/O."""
    pivot_comps = composite(pivots)
    writers = []
    try:
        for i in range(len(pivots) + 1):
            writers.append(BlockWriter(machine, f"{label}-bucket{i}"))
        kernel = machine.kernel
        with scan_chunks(file, machine.load_limit, f"{label}-in") as chunks:
            for chunk in chunks:
                if len(chunk) == 0:
                    continue
                idx = kernel.bucket_of(chunk, pivot_comps)
                cmp_search(machine, len(chunk), len(pivot_comps))
                for b, group in kernel.group_by_bucket(chunk, idx):
                    writers[b].write(group)
    except BaseException:
        for w in writers:
            w.abort()
        raise
    return [w.close() for w in writers]


def _observed_pass(distribute, recs, n_pivots, memory, block):
    """Run one distribution on a fresh machine; return everything the
    model can observe of it."""
    mach = Machine(memory=memory, block=block)
    f = load_input(mach, recs)
    pos = np.linspace(0, len(recs) - 1, n_pivots + 2).astype(int)[1:-1]
    pivots = sort_records(recs)[pos]
    mach.reset_counters()
    mach.memory.reset_peak()
    mach.disk.start_trace()
    with mach.phase("dist"):
        buckets = distribute(mach, f, pivots)
    io = mach.snapshot()
    return {
        "ids": [b.block_ids for b in buckets],
        "bytes": [b.to_numpy().tobytes() for b in buckets],
        "trace": mach.disk.stop_trace(),
        "counters": (io.reads, io.writes, io.by_phase, io.comparisons),
        "peak_blocks": mach.disk.peak_blocks,
        "memory_peak": mach.memory.peak,
        "in_use": mach.memory.in_use,
    }


@pytest.mark.parametrize("memory,block,n", [(256, 8, 3000), (4096, 64, 40000)])
@pytest.mark.parametrize("n_pivots", [1, 2, 7, 29])
@pytest.mark.parametrize("gen", [random_permutation, few_distinct, sorted_keys])
def test_matches_per_bucket_writers(gen, n_pivots, memory, block, n):
    recs = gen(n, seed=5)
    want = _observed_pass(per_bucket_distribute, recs, n_pivots, memory, block)
    got = _observed_pass(distribute_by_pivots, recs, n_pivots, memory, block)
    assert got == want
    assert got["in_use"] == 0


def test_lazy_engine_trace_matches_per_bucket_writers(monkeypatch):
    # The lazy engine refines through distribute_by_pivots: a whole
    # zipfian query trace leaves the access trace and counters of the
    # per-bucket writers.
    from repro.service import LazyPartitionIndex

    def observe():
        mach = Machine(memory=4096, block=64)
        f = load_input(mach, random_permutation(60000, seed=2))
        mach.disk.start_trace()
        with LazyPartitionIndex(mach, f, k=64) as lazy:
            got = lazy.batch_select(zipfian_trace(256, 60000, seed=3))
            assert lazy.stats["refinements"] > 1
        io = mach.snapshot()
        return (
            got.tobytes(), mach.disk.stop_trace(), io.by_phase,
            io.comparisons, mach.disk.peak_blocks, mach.memory.peak,
        )

    got = observe()
    monkeypatch.setattr(
        "repro.service.online.distribute_by_pivots", per_bucket_distribute
    )
    assert observe() == got


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
