"""Tests for the online partition service (repro.service).

Covers the eager :class:`PartitionIndex` (build, queries, updates,
rebalancing, rebuild, partitions too big for memory), the lazy
:class:`LazyPartitionIndex` (refinement, caching, memory-pressure
eviction, and its leaf list's answers and counters over four input
generators), the one query path both engines
share (every engine over every input generator, boundary-leaf reads and
charges, the eager answer cache, the closed outer edges and closed
engines), the batching :class:`QueryFrontend`,
and — throughout — *differential* identity: the service's answers must
be element-for-element what sorting (or an offline multi-selection)
would produce, including across update and rebalance boundaries.
"""

import functools

import numpy as np
import pytest

from repro.em import (
    KEY_MAX,
    KEY_MIN,
    UID_BITS,
    InjectedFault,
    Machine,
    SpecError,
    arm_fault,
    make_records,
)
from repro.em.records import composite
from repro.service import (
    DurablePartitionIndex,
    LazyPartitionIndex,
    PartitionIndex,
    Query,
    QueryFrontend,
    recover,
)
from repro.workloads import (
    WORKLOADS,
    load_input,
    random_permutation,
    uniform_random,
)
from repro.workloads.generators import (
    few_distinct,
    hard_permutation,
    organ_pipe,
    sorted_keys,
)
from repro.workloads.queries import (
    QUERY_TRACES,
    adversarial_trace,
    mixed_query_trace,
    uniform_trace,
    update_batches,
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
        assert 0 <= j < index.n_leaves
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
        k0 = index.n_leaves
        index.append(np.full(600, 42, dtype=np.int64))
        index.flush_updates()
        assert index.stats["splits"] >= 1
        assert index.n_leaves > k0
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

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("gen", [random_permutation, few_distinct])
    def test_oversized_partitions_match_the_oracle(self, monkeypatch, gen, k):
        """Partitions of N/K >= M records never fit in memory: selects
        fall back to external multi-selection, and at K=2 a merge that
        overshoots b re-splits externally.  Answers match the oracle."""
        import repro.service.online as online

        calls = {"fallback": 0, "external_split": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            online, "multi_select", counted("fallback", online.multi_select)
        )
        monkeypatch.setattr(
            PartitionIndex, "_split_external",
            counted("external_split", PartitionIndex._split_external),
        )
        mach, recs, index = _build_eager(n=2**14, k=k, gen=gen, seed=5)
        live = list(_sorted_keys(recs))
        plan = update_batches(recs["key"], 12, 48, 16, seed=6)
        for round_, batch in enumerate(plan):
            for op, arg in batch:
                if op == "append":
                    index.append(arg)
                    live.extend(arg)
                else:
                    index.delete(arg)
                    live.remove(arg)
            index.flush_updates()
            live.sort()
            ranks = uniform_trace(16, len(live), seed=round_)
            got = index.batch_select(ranks)["key"]
            assert np.array_equal(got, np.array(live)[ranks - 1]), round_
        index.check_invariants()
        index.close()
        assert mach.memory.in_use == 0
        assert calls["fallback"] > 0
        if k == 2:
            assert calls["external_split"] > 0

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
    trace; only the reads after every query are lower, since an empty
    interval ``(k, k]`` scans nothing, nor does a range outside the
    learned edges or an edge leaf that a range spans."""

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
        ("random_permutation", 6000): ((3160, 796), (39157, 796), 27, (14, 114, 16)),
        ("random_permutation", 65536): ((6038, 2137), (35248, 2137), 90, (31, 158, 5)),
        ("few_distinct", 6000): ((3146, 818), (4033, 818), 28, (15, 115, 13)),
        ("few_distinct", 65536): ((6048, 2147), (6792, 2147), 90, (31, 158, 8)),
        ("sorted_keys", 6000): ((3191, 818), (37248, 818), 28, (15, 117, 16)),
        ("sorted_keys", 65536): ((6018, 2144), (35430, 2144), 90, (31, 156, 5)),
        ("organ_pipe", 6000): ((3167, 776), (40749, 776), 26, (13, 115, 16)),
        ("organ_pipe", 65536): ((6018, 2144), (35430, 2144), 90, (31, 156, 5)),
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


class TestOneQueryPath:
    """Both engines answer through the lazy engine's one query path:
    every engine over every input generator agrees with the sorted-array
    oracle, an eager query reads and charges as the leaf list does, a
    range outside the learned edges reads nothing, appends widen the
    edges (across a crash too), and a closed engine answers nothing."""

    N, K = 4096, 16
    INPUTS = {**WORKLOADS, "hard": functools.partial(hard_permutation, block=16)}
    ENGINES = ("lazy", "eager", "eager-updated")

    def _engine(self, kind, mach, f, recs):
        """The engine and its live keys, sorted."""
        keys = _sorted_keys(recs)
        if kind == "lazy":
            return LazyPartitionIndex(mach, f, k=self.K), keys
        index = PartitionIndex.build(mach, f, self.K)
        if kind == "eager":
            return index, keys
        live = list(keys)
        for batch in update_batches(recs["key"], 3, 300, 100, seed=7):
            for op, arg in batch:
                if op == "append":
                    index.append(arg)
                    live.extend(int(k) for k in arg)
                else:
                    index.delete(arg)
                    live.remove(arg)
            index.flush_updates()
        index.check_invariants()
        return index, np.sort(np.array(live, dtype=np.int64))

    @pytest.mark.parametrize("gen", INPUTS)
    def test_every_engine_matches_the_oracle(self, gen):
        recs = self.INPUTS[gen](self.N, seed=3)
        mach = _machine()
        f = load_input(mach, recs)
        # Appends go past the largest key, and zipf's is KEY_MAX already.
        engines = self.ENGINES[:2] if gen == "zipf" else self.ENGINES
        for kind in engines:
            engine, keys = self._engine(kind, mach, f, recs)
            n = len(keys)
            assert engine.n_live == n, kind
            trace = zipfian_trace(200, n, seed=4)
            for batch in np.array_split(trace, 4):
                got = engine.batch_select(batch)
                assert np.array_equal(got["key"], keys[batch - 1]), kind
            # The resident lease holds the control state and the cache.
            held = engine._resident_total() + len(engine._cache)
            assert engine._resident.size == held, kind
            # Keys at every N/8-th rank and beside them, the ends of the
            # key domain and keys past both ends of the data.
            near = keys[np.linspace(0, n - 1, 9).astype(np.int64)]
            grid = sorted(
                {int(x) + d for x in near for d in (-1, 0, 1)}
                | {KEY_MIN, -1, KEY_MAX}
            )
            grid = [x for x in grid if KEY_MIN <= x <= KEY_MAX]
            parts = [engine.partition_of(x) for x in grid]
            assert parts == sorted(parts), kind
            assert parts[0] == 0 and parts[-1] == engine.n_leaves - 1, kind
            at = np.searchsorted(keys, np.array(grid), side="right")
            for i, lo in enumerate(grid):
                for j in range(i, len(grid)):
                    assert engine.range_count(lo, grid[j]) == at[j] - at[i], (
                        kind, lo, grid[j],
                    )
            engine.close()
        f.free()
        assert mach.memory.in_use == 0

    def test_eager_range_in_one_partition_reads_it_once(self):
        mach, recs, index = _build_eager(n=20_000, k=16)
        # Keys are 0..N-1, so key x has rank x + 1; the range lies
        # inside one partition, and a select loads that partition once.
        lo, hi = 10_000, 10_010
        assert index.partition_of(lo) == index.partition_of(hi + 1)
        mach.reset_counters()
        index.select(lo + 1)
        blocks = mach.io.reads
        mach.reset_counters()
        assert index.range_count(lo, hi) == hi - lo
        assert (mach.io.reads, mach.io.writes) == (blocks, 0)
        index.close()

    def test_eager_cache_dropped_by_updates(self):
        mach, recs, index = _build_eager(n=2000, k=8)  # keys 0..1999
        assert int(index.select(100)["key"]) == 99
        mach.reset_counters()
        assert int(index.select(100)["key"]) == 99
        assert mach.io.total == 0  # answered from the cache
        index.append(np.array([-1]))
        assert int(index.select(100)["key"]) == 98
        index.delete(-1)
        assert int(index.select(100)["key"]) == 99
        assert index.stats["cache_hits"] == 1
        index.close()

    @pytest.mark.parametrize("kind", ENGINES[:2])
    def test_empty_interval_reads_nothing(self, kind):
        recs = random_permutation(8000, seed=1)
        mach = _machine()
        f = load_input(mach, recs)
        engine, _ = self._engine(kind, mach, f, recs)
        mach.reset_counters()
        for key in (-1, 0, 4000, 7999, KEY_MAX):
            assert engine.range_count(key, key) == 0
        assert mach.io.total == 0
        engine.close()
        f.free()

    @pytest.mark.parametrize("kind", ENGINES[:2])
    def test_range_count_charges_two_comparisons_per_scanned_record(self, kind):
        recs = random_permutation(8000, seed=1)
        mach = _machine()
        f = load_input(mach, recs)
        engine, _ = self._engine(kind, mach, f, recs)
        engine.batch_select(np.arange(1, 8001, 500))  # refines the lazy one
        lo, hi = 1000, 6000
        first, last = engine.partition_of(lo), engine.partition_of(hi)
        assert first < last
        scanned = engine._leaves[first].stored + engine._leaves[last].stored
        mach.reset_counters()
        assert engine.range_count(lo, hi) == hi - lo
        assert mach.comparisons >= 2 * scanned
        engine.close()
        f.free()

    # ------------------------------------------------------------------
    # Closed outer edges: learned by edge-leaf scans, widened by appends
    # ------------------------------------------------------------------
    #: Keys past the record domain; their composites overflow int64.
    FAR = 10**12

    @pytest.mark.parametrize("gen", INPUTS)
    def test_ranges_outside_the_learned_edges_read_nothing(self, gen):
        recs = self.INPUTS[gen](self.N, seed=3)
        mach = _machine()
        f = load_input(mach, recs)
        engines = self.ENGINES[:2] if gen == "zipf" else self.ENGINES
        for kind in engines:
            engine, keys = self._engine(kind, mach, f, recs)
            n = len(keys)
            engine.batch_select(zipfian_trace(50, n, seed=4))
            lo, hi = int(keys[0]), int(keys[-1])
            # One range cutting both edge leaves learns both edges.
            assert engine.range_count(lo - 1, hi) == n, kind
            live = np.sort(composite(engine.batch_select(np.arange(1, n + 1))))
            assert engine._lo <= live[0] and live[-1] <= engine._hi, kind
            # Tight unless a tombstone lies beyond, or the range already
            # reached the end of the key domain.
            if kind != "eager-updated":
                assert lo == KEY_MIN or engine._lo == live[0], kind
                assert hi == KEY_MAX or engine._hi == live[-1], kind
            below = (engine._lo >> UID_BITS) - 1  # largest key under _lo
            above = engine._hi >> UID_BITS
            mach.reset_counters()
            for a, b in [
                (-self.FAR, below), (KEY_MIN - 1, below), (below - 1, below),
                (-self.FAR, KEY_MIN), (above, above + 1), (above, KEY_MAX),
                (above, self.FAR), (KEY_MAX, self.FAR),
            ]:
                if a < b:
                    want = int(((keys > a) & (keys <= b)).sum())
                    assert engine.range_count(a, b) == want == 0, (kind, a, b)
            # Ranges spanning both edge leaves count them from their sizes.
            for a in (-self.FAR, KEY_MIN - 1, below):
                for b in (above, KEY_MAX, self.FAR):
                    assert engine.range_count(a, b) == n, (kind, a, b)
            assert (mach.io.reads, mach.io.writes) == (0, 0), kind
            engine.close()
        f.free()
        assert mach.memory.in_use == 0

    @pytest.mark.parametrize("side", ["above", "below"])
    @pytest.mark.parametrize("kind", ENGINES[1:])
    def test_append_past_a_learned_edge_is_counted(self, kind, side):
        recs = random_permutation(self.N, seed=1)
        mach = _machine()
        f = load_input(mach, recs)
        engine, keys = self._engine(kind, mach, f, recs)
        lo, hi = int(keys[0]), int(keys[-1])
        assert engine.range_count(lo - 1, hi) == len(keys)  # learns both edges
        if side == "above":
            past, key = (hi + 100, hi + 200), hi + 150
        else:
            past, key = (lo - 200, lo - 100), lo - 150
        mach.reset_counters()
        assert engine.range_count(*past) == 0
        assert mach.io.total == 0
        engine.append(np.array([key]))
        engine.flush_updates()
        assert engine.range_count(*past) == 1
        assert engine.range_count(-self.FAR, self.FAR) == len(keys) + 1
        engine.check_invariants()
        engine.close()
        f.free()

    def test_append_past_a_learned_edge_survives_a_crash(self):
        """A crash at every I/O of the flush that appends past the
        learned top edge: the recovered index counts the record exactly
        when its WAL group committed, and after relearning its edges it
        counts the next append past them too."""
        n = 2048
        outcomes = set()
        for fail_at in range(1, 100):
            mach = _machine()
            f = load_input(mach, random_permutation(n, seed=2))
            index = DurablePartitionIndex.build_durable(mach, f, 8, snapshot_every=1)
            f.free()
            assert index.range_count(-1, n - 1) == n  # learns both edges
            index.append(np.array([n + 150]))
            disarm = arm_fault(mach, fail_at)
            try:
                index.flush_updates()
                crashed = False
            except InjectedFault:
                crashed = True
            disarm()
            manifest = index.manifest_block
            index.abandon()
            rec = recover(mach, manifest)
            kept = rec.n_live - n
            assert rec.range_count(n + 100, n + 200) == kept, fail_at
            assert rec.range_count(-1, n - 1) == n
            rec.append(np.array([n + 160]))
            rec.flush_updates()
            assert rec.range_count(n + 100, n + 200) == kept + 1, fail_at
            rec.check_invariants()
            rec.destroy()
            mach.close()
            outcomes.add((crashed, kept))
            if not crashed:
                break
        assert outcomes == {(True, 0), (True, 1), (False, 1)}

    @pytest.mark.parametrize("change", ["delete-ends", "compact", "split", "rebuild"])
    def test_learned_edges_hold_through_maintenance(self, change):
        n = self.N
        mach = _machine()
        f = load_input(mach, random_permutation(n, seed=5))  # keys 0..n-1
        threshold = 0.01 if change == "rebuild" else 0.5
        index = PartitionIndex.build(mach, f, self.K, rebuild_threshold=threshold)
        f.free()
        assert index.range_count(-1, n - 1) == n  # learns both edges
        live = set(range(n))
        last = index.n_leaves - 1
        if change in ("delete-ends", "compact"):
            for key in (0, n - 1):
                index.delete(key)
                live.discard(key)
            index.flush_updates()
            if change == "compact":
                index._compact(0)
                index._compact(last)
                assert index.stats["compactions"] == 2
        else:
            # Past the top edge into the last partition: a split, or
            # with a tiny drift threshold a full rebuild.
            extra = range(n, n + (index.b + 1 if change == "split" else 64))
            index.append(np.array(extra))
            live.update(extra)
            index.flush_updates()
            counter = "splits" if change == "split" else "rebuilds"
            assert index.stats[counter] >= 1
        index.check_invariants()
        keys = np.array(sorted(live))
        top = int(keys[-1])
        grid = [-self.FAR, KEY_MIN, -2, -1, 0, 1, 2, n - 2, n - 1, n,
                top - 1, top, top + 1, KEY_MAX, self.FAR]
        grid = sorted(set(grid))
        at = np.searchsorted(keys, np.array(grid, dtype=object), side="right")
        for i, lo in enumerate(grid):
            for j in range(i, len(grid)):
                assert index.range_count(lo, grid[j]) == at[j] - at[i], (lo, grid[j])
        # Past the edges — loose after deletes, never too tight — the
        # ranges read nothing.
        mach.reset_counters()
        assert index.range_count(-self.FAR, -1) == 0
        assert index.range_count(max(top, n - 1), self.FAR) == 0
        assert index.range_count(-self.FAR, self.FAR) == len(keys)
        assert mach.io.total == 0
        index.close()

    @pytest.mark.parametrize("end", ["close", "abandon"])
    @pytest.mark.parametrize("kind", ENGINES[:2])
    def test_closed_engine_raises(self, kind, end):
        recs = random_permutation(2000, seed=1)
        mach = _machine()
        f = load_input(mach, recs)
        engine, _ = self._engine(kind, mach, f, recs)
        assert engine.range_count(-1, 1999) == 2000  # learns both edges
        getattr(engine, end)()
        # Each shortcut (an empty batch or interval, a range past an
        # edge or spanning both) comes after the check.
        queries = [
            ("select", lambda: engine.select(1)),
            ("select", lambda: engine.batch_select(np.array([], dtype=np.int64))),
            ("quantile", lambda: engine.quantile(0.5)),
            ("partition_of", lambda: engine.partition_of(5)),
            ("range_count", lambda: engine.range_count(5, 5)),
            ("range_count", lambda: engine.range_count(2000, self.FAR)),
            ("range_count", lambda: engine.range_count(-self.FAR, self.FAR)),
            ("range_count", lambda: engine.range_count(10, 20)),
        ]
        for name, query in queries:
            with pytest.raises(SpecError, match=f"{name} on a closed index"):
                query()
        f.free()


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
