"""Tests for the online partition service (repro.service).

Covers the eager :class:`PartitionIndex` (build, queries, updates,
rebalancing, rebuild), the lazy :class:`LazyPartitionIndex` (refinement,
caching, memory-pressure eviction, and its leaf list's answers and
counters over four input generators), the batching
:class:`QueryFrontend`, and — throughout — *differential* identity: the
service's answers must be element-for-element what sorting (or an
offline multi-selection) would produce, including across update and
rebalance boundaries.
"""

import functools

import numpy as np
import pytest

from repro.em import KEY_MAX, KEY_MIN, Machine, SpecError, make_records
from repro.em.records import composite
from repro.service import (
    LazyPartitionIndex,
    PartitionIndex,
    Query,
    QueryFrontend,
)
from repro.workloads import load_input, random_permutation, uniform_random
from repro.workloads.generators import few_distinct, organ_pipe, sorted_keys
from repro.workloads.queries import (
    QUERY_TRACES,
    adversarial_trace,
    mixed_query_trace,
    uniform_trace,
    zipfian_trace,
)


def _machine():
    return Machine(memory=4096, block=64)


def _build_eager(n=8000, k=16, seed=1, gen=random_permutation, **kw):
    mach = _machine()
    recs = gen(n, seed=seed)
    f = load_input(mach, recs)
    index = PartitionIndex.build(mach, f, k, **kw)
    f.free()
    return mach, recs, index


def _sorted_keys(recs):
    return np.sort(recs["key"])


class TestPartitionIndex:
    def test_build_and_full_rank_sweep(self):
        mach, recs, index = _build_eager()
        keys = _sorted_keys(recs)
        got = index.batch_select(np.arange(1, len(recs) + 1))
        assert np.array_equal(got["key"], keys)
        # Output of a batch is rank-ordered, hence composite-sorted.
        assert np.all(np.diff(composite(got)) > 0)
        index.check_invariants()
        index.close()

    def test_duplicate_and_unsorted_ranks_align(self):
        mach, recs, index = _build_eager()
        keys = _sorted_keys(recs)
        ranks = np.array([500, 1, 500, 8000, 250, 1], dtype=np.int64)
        got = index.batch_select(ranks)
        assert np.array_equal(got["key"], keys[ranks - 1])
        index.close()

    def test_range_count_and_partition_of(self):
        mach, recs, index = _build_eager(gen=uniform_random)
        keys = _sorted_keys(recs)
        for lo, hi in [(0, 10**9), (100, 5000), (5000, 5000)]:
            true = int(((keys > lo) & (keys <= hi)).sum())
            assert index.range_count(lo, hi) == true
        with pytest.raises(SpecError):
            index.range_count(10, 5)
        j = index.partition_of(int(keys[0]))
        assert 0 <= j < index.num_partitions
        index.close()

    def test_quantile_edges(self):
        mach, recs, index = _build_eager()
        keys = _sorted_keys(recs)
        assert int(index.quantile(0.0)["key"]) == keys[0]
        assert int(index.quantile(1.0)["key"]) == keys[-1]
        with pytest.raises(SpecError):
            index.quantile(1.5)
        index.close()

    def test_select_out_of_range(self):
        mach, recs, index = _build_eager(n=100, k=4)
        with pytest.raises(SpecError):
            index.select(0)
        with pytest.raises(SpecError):
            index.select(101)
        index.close()

    def test_context_manager_releases_memory(self):
        mach = _machine()
        f = load_input(mach, random_permutation(2000, seed=3))
        with PartitionIndex.build(mach, f, 8) as index:
            index.select(7)
        f.free()
        assert mach.memory.in_use == 0


class TestDegenerateInputs:
    def test_empty_file(self):
        mach = _machine()
        f = load_input(mach, make_records(np.array([], dtype=np.int64)))
        with PartitionIndex.build(mach, f, 4) as index:
            assert index.n_live == 0
            assert index.range_count(0, 10**9) == 0
            assert index.partition_of(5) == 0
            with pytest.raises(SpecError):
                index.select(1)
            with pytest.raises(SpecError):
                index.quantile(0.5)
        f.free()

    def test_grow_from_empty(self):
        mach = _machine()
        f = load_input(mach, make_records(np.array([], dtype=np.int64)))
        with PartitionIndex.build(mach, f, 4) as index:
            index.append(np.arange(100))
            assert index.n_live == 100
            got = index.batch_select(np.arange(1, 101))
            assert np.array_equal(got["key"], np.arange(100))
            index.check_invariants()
        f.free()

    def test_fewer_records_than_k(self):
        mach = _machine()
        f = load_input(mach, make_records(np.array([5, 3, 9], dtype=np.int64)))
        with PartitionIndex.build(mach, f, 64) as index:
            assert index.n_live == 3
            assert [int(index.select(r)["key"]) for r in (1, 2, 3)] == [3, 5, 9]
            assert int(index.quantile(0.0)["key"]) == 3
            assert int(index.quantile(1.0)["key"]) == 9
            index.check_invariants()
        f.free()

    def test_all_equal_keys(self):
        mach = _machine()
        keys = np.full(500, 7, dtype=np.int64)
        f = load_input(mach, make_records(keys))
        with PartitionIndex.build(mach, f, 8) as eager:
            got = eager.batch_select(np.arange(1, 501))
            assert np.all(got["key"] == 7)
            assert len(np.unique(got["uid"])) == 500  # distinct elements
            assert eager.range_count(6, 7) == 500
            assert eager.range_count(7, 8) == 0
        with LazyPartitionIndex(mach, f, k=8) as lazy:
            got = lazy.batch_select(np.arange(1, 501))
            assert np.all(got["key"] == 7)
            assert lazy.range_count(6, 7) == 500
        f.free()
        assert mach.memory.in_use == 0


class TestUpdates:
    def test_append_then_query_reflects_updates(self):
        mach, recs, index = _build_eager(n=2000, k=8)
        index.append(np.array([-5, -6, -7]))
        # Queries flush the buffer automatically.
        assert int(index.select(1)["key"]) == -7
        assert index.n_live == 2003
        index.check_invariants()
        index.close()

    def test_delete_and_missing_delete_raises(self):
        mach, recs, index = _build_eager(n=2000, k=8)
        keys = _sorted_keys(recs)
        index.delete(int(keys[0]))
        assert int(index.select(1)["key"]) == keys[1]
        index.delete(10**8)
        with pytest.raises(SpecError, match="no live element"):
            index.flush_updates()
        index.close()

    def test_hot_appends_force_split(self):
        mach, recs, index = _build_eager(n=4000, k=16)
        k0 = index.num_partitions
        index.append(np.full(600, 42, dtype=np.int64))
        index.flush_updates()
        assert index.stats["splits"] >= 1
        assert index.num_partitions > k0
        index.check_invariants()
        index.close()

    def test_mass_deletes_force_merge(self):
        mach, recs, index = _build_eager(n=4000, k=16)
        keys = _sorted_keys(recs)
        for key in keys[:420]:
            index.delete(int(key))
        index.flush_updates()
        assert index.stats["merges"] >= 1
        index.check_invariants()
        assert int(index.select(1)["key"]) == keys[420]
        index.close()

    def test_churn_triggers_rebuild(self):
        mach, recs, index = _build_eager(n=2000, k=8, rebuild_threshold=0.5)
        index.append(np.arange(10**6, 10**6 + 1200))
        index.flush_updates()
        assert index.stats["rebuilds"] >= 1
        index.check_invariants()
        index.close()

    def test_differential_across_update_and_rebalance_boundaries(self):
        """Ground-truth key multiset equality through appends, deletes,
        splits, merges, and rebuilds."""
        mach, recs, index = _build_eager(n=3000, k=12, rebuild_threshold=0.4)
        truth = sorted(int(k) for k in recs["key"])
        rng = np.random.default_rng(9)
        for step in range(6):
            new = rng.integers(0, 10**6, size=150).astype(np.int64)
            index.append(new)
            truth.extend(int(k) for k in new)
            truth.sort()
            for _ in range(40):
                victim = truth.pop(int(rng.integers(len(truth))))
                index.delete(victim)
            got = index.batch_select(np.arange(1, len(truth) + 1))
            assert list(got["key"]) == truth, f"diverged at step {step}"
            assert np.all(np.diff(composite(got)) > 0)
            index.check_invariants()
        assert index.stats["splits"] + index.stats["rebuilds"] >= 1
        index.close()

    def test_delta_buffer_capacity_autoflush(self):
        # The buffer flushes itself at max(B, M/8) = 512 pending ops.
        mach, recs, index = _build_eager(n=2000, k=8)
        for i in range(30):
            index.append(np.arange(25) + 25 * i)
        assert index.stats["update_flushes"] == 1  # at 21 x 25 = 525
        assert index._n_appends == 9 * 25
        assert index.n_live == 2750
        index.close()


class TestLazyIndex:
    def test_matches_offline_multiselect(self):
        from repro.core import multi_select

        mach = _machine()
        recs = random_permutation(20_000, seed=11)
        f = load_input(mach, recs)
        trace = zipfian_trace(200, 20_000, seed=2)
        with LazyPartitionIndex(mach, f, k=32) as lazy:
            got = lazy.batch_select(trace)
        unique, inverse = np.unique(trace, return_inverse=True)
        expected = multi_select(mach, f, unique)[inverse]
        assert np.array_equal(composite(got), composite(expected))
        f.free()

    def test_input_file_left_intact(self):
        mach = _machine()
        recs = random_permutation(5000, seed=12)
        f = load_input(mach, recs)
        before = f.num_blocks
        with LazyPartitionIndex(mach, f, k=8) as lazy:
            lazy.batch_select(np.array([1, 2500, 5000]))
        assert f.num_blocks == before
        assert np.array_equal(f.read_range(0, 1)["key"][:5], recs["key"][:5])
        f.free()
        assert mach.memory.in_use == 0

    def test_repeats_amortize(self):
        mach = _machine()
        f = load_input(mach, random_permutation(20_000, seed=13))
        with LazyPartitionIndex(mach, f, k=32) as lazy:
            mach.reset_counters()
            lazy.batch_select(np.array([777]))
            first = mach.io.total
            mach.reset_counters()
            lazy.batch_select(np.array([777]))
            second = mach.io.total
        assert second == 0  # cached answer
        assert first > 0
        f.free()

    def test_range_count_without_refinement(self):
        mach = _machine()
        recs = uniform_random(10_000, seed=14)
        f = load_input(mach, recs)
        keys = _sorted_keys(recs)
        with LazyPartitionIndex(mach, f, k=16) as lazy:
            refinements0 = lazy.stats["refinements"]
            true = int(((keys > 100) & (keys <= 90_000)).sum())
            assert lazy.range_count(100, 90_000) == true
            assert lazy.stats["refinements"] == refinements0
        f.free()

    def test_cache_evicted_under_memory_pressure(self):
        """A full answer cache yields memory back to leaf loads instead
        of deadlocking refinement (the feedback-spiral regression)."""
        mach = Machine(memory=512, block=16)
        f = load_input(mach, random_permutation(20_000, seed=15))
        trace = zipfian_trace(400, 20_000, seed=3)
        with LazyPartitionIndex(mach, f, k=64) as lazy:
            frontend = QueryFrontend(mach, lazy)
            answers = frontend.run([Query.select(int(r)) for r in trace])
            assert len(answers) == 400
        f.free()
        assert mach.memory.in_use == 0


class TestLazyLeafList:
    """Selects, ``partition_of`` and range counts of the lazy engine
    over a zipfian trace, against the sorted-array oracle, with the I/O,
    leaf counts and stats the pivot-tree layout produced on the same
    trace."""

    INPUTS = {
        "random_permutation": random_permutation,
        "few_distinct": functools.partial(few_distinct, n_distinct=7),
        "sorted_keys": sorted_keys,
        "organ_pipe": organ_pipe,
    }
    SHAPES = [(512, 16, 6000, 16), (4096, 64, 1 << 16, 64)]
    #: (reads, writes) after the selects, then after every query,
    #: n_leaves and stats, keyed by (input, N).
    TREE = {
        ("random_permutation", 6000): ((3160, 796), (43198, 796), 27, (14, 114, 16)),
        ("random_permutation", 65536): ((6038, 2137), (38956, 2137), 90, (31, 158, 5)),
        ("few_distinct", 6000): ((3146, 818), (4776, 818), 28, (15, 115, 13)),
        ("few_distinct", 65536): ((6048, 2147), (7452, 2147), 90, (31, 158, 8)),
        ("sorted_keys", 6000): ((3191, 818), (41357, 818), 28, (15, 117, 16)),
        ("sorted_keys", 65536): ((6018, 2144), (39042, 2144), 90, (31, 156, 5)),
        ("organ_pipe", 6000): ((3167, 776), (45227, 776), 26, (13, 115, 16)),
        ("organ_pipe", 65536): ((6018, 2144), (39042, 2144), 90, (31, 156, 5)),
    }

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"N={s[2]}")
    @pytest.mark.parametrize("gen", INPUTS)
    def test_oracle_answers_and_tree_counters(self, gen, shape):
        memory, block, n, k = shape
        recs = self.INPUTS[gen](n, seed=3)
        mach = Machine(memory=memory, block=block)
        f = load_input(mach, recs)
        mach.reset_counters()
        comps, keys = np.sort(composite(recs)), _sorted_keys(recs)
        trace = zipfian_trace(200, n, seed=4)
        with LazyPartitionIndex(mach, f, k=k) as lazy:
            for batch in np.array_split(trace, 8):
                got = lazy.batch_select(batch)
                assert np.array_equal(composite(got), comps[batch - 1])
            after_selects = (mach.io.reads, mach.io.writes)
            # Keys at every N/16-th rank and beside them, plus the ends.
            near = keys[np.linspace(0, n - 1, 17).astype(np.int64)]
            grid = sorted(
                {int(x) + d for x in near for d in (-1, 0, 1)}
                | {KEY_MIN, -1, KEY_MAX}
            )
            parts = [lazy.partition_of(x) for x in grid]
            assert parts == sorted(parts)
            assert parts[0] == 0 and parts[-1] == lazy.n_leaves - 1
            at = np.searchsorted(keys, np.array(grid), side="right")
            for i, lo in enumerate(grid):
                for j in range(i, len(grid)):
                    assert lazy.range_count(lo, grid[j]) == at[j] - at[i]
            stats = lazy.stats
            observed = (
                after_selects,
                (mach.io.reads, mach.io.writes),
                lazy.n_leaves,
                (stats["refinements"], stats["leaf_loads"], stats["cache_hits"]),
            )
        f.free()
        assert observed == self.TREE[(gen, n)]


class TestQueryFrontend:
    def test_mixed_trace_and_coalescing(self):
        mach, recs, index = _build_eager(gen=uniform_random)
        keys = _sorted_keys(recs)
        frontend = QueryFrontend(mach, index)
        trace = mixed_query_trace(60, 8000, seed=4, key_range=int(keys[-1]))
        answers = frontend.run(trace, batch=16)
        assert len(answers) == 60
        for query, ans in zip(trace, answers):
            if query[0] == "select":
                assert int(ans["key"]) == keys[query[1] - 1]
            elif query[0] == "range_count":
                lo, hi = query[1], query[2]
                assert ans == int(((keys > lo) & (keys <= hi)).sum())
        assert frontend.total_queries == 60
        assert frontend.amortized_io > 0
        index.close()

    def test_duplicate_selects_collapse(self):
        mach, recs, index = _build_eager()
        frontend = QueryFrontend(mach, index)
        for _ in range(10):
            frontend.select(4000)
        frontend.quantile(0.5)  # same rank as select 4000
        answers = frontend.flush()
        stats = frontend.flushes[-1]
        assert stats.queries == 11
        assert stats.select_ranks == 11
        assert stats.distinct_ranks == 1
        assert len({int(a["uid"]) for a in answers}) == 1
        index.close()

    def test_queries_interleaved_with_rebalancing_updates(self):
        """Frontend answers stay truthful while updates force splits."""
        mach, recs, index = _build_eager(n=3000, k=12)
        truth = sorted(int(k) for k in recs["key"])
        frontend = QueryFrontend(mach, index)
        for round_ in range(3):
            hot = 10**5 + round_
            index.append(np.full(250, hot, dtype=np.int64))
            truth.extend([hot] * 250)
            truth.sort()
            frontend.select(1)
            frontend.select(len(truth))
            frontend.quantile(0.5)
            first, last, mid = frontend.flush()
            assert int(first["key"]) == truth[0]
            assert int(last["key"]) == truth[-1]
            assert int(mid["key"]) == truth[-(-len(truth) // 2) - 1]
        assert index.stats["splits"] >= 1
        index.check_invariants()
        index.close()

    def test_quantile_on_empty_engine_raises(self):
        mach = _machine()
        f = load_input(mach, make_records(np.array([], dtype=np.int64)))
        with PartitionIndex.build(mach, f, 4) as index:
            frontend = QueryFrontend(mach, index)
            frontend.quantile(0.5)
            with pytest.raises(SpecError):
                frontend.flush()
        f.free()

    def test_coerce_rejects_unknown_kind(self):
        with pytest.raises(SpecError):
            Query.coerce(("argmax", 3))
        with pytest.raises(SpecError):
            QueryFrontend(_machine(), None).run([], batch=0)


class TestQueryTraces:
    def test_traces_in_range_and_deterministic(self):
        n = 10_000
        for name, fn in QUERY_TRACES.items():
            t1, t2 = fn(64, n, seed=5), fn(64, n, seed=5)
            assert np.array_equal(t1, t2), name
            assert t1.min() >= 1 and t1.max() <= n, name
            assert len(t1) == 64, name

    def test_zipfian_is_skewed_uniform_is_not(self):
        n = 10**6
        z = zipfian_trace(512, n, seed=6, alpha=1.1)
        u = uniform_trace(512, n, seed=6)
        assert len(np.unique(z)) < len(np.unique(u))

    def test_adversarial_covers_evenly(self):
        t = adversarial_trace(64, 10_000, seed=7)
        assert len(np.unique(t)) == 64
        gaps = np.diff(np.sort(t))
        assert gaps.max() <= 2 * (10_000 // 64)

    def test_zipfian_extreme_draws_stay_in_range(self):
        # Regression: heavy-tail zipf draws used to overflow int64 in
        # `(ids - 1) * _SCATTER`, folding hot ids onto negative ranks.
        # alpha barely above 1 makes multi-billion draws routine; every
        # rank must still land in [1, n] and agree with exact (Python
        # big-int) modular arithmetic.
        from repro.workloads.queries import _SCATTER, _rng

        n = 10_000
        q = 4096
        alpha = 1.01
        t = zipfian_trace(q, n, seed=123, alpha=alpha)
        assert t.min() >= 1 and t.max() <= n
        ids = _rng(123).zipf(alpha, size=q).astype(np.int64)
        expected = np.array(
            [(int(i) - 1) * _SCATTER % n + 1 for i in ids], dtype=np.int64
        )
        assert np.array_equal(t, expected)
        # The seed must actually exercise the overflow regime.
        assert int(ids.max()) * _SCATTER > np.iinfo(np.int64).max
