"""Edge-case tests collected across modules."""

import numpy as np
import pytest

from repro.em import (
    BlockWriter,
    EMFile,
    Machine,
    MemoryBudgetError,
    merge_sorted_files,
)
from repro.em.records import make_records, sort_records
from repro.workloads import load_input, random_permutation


class TestLoadLimit:
    def test_adapts_to_held_leases(self):
        mach = Machine(memory=1024, block=16)
        base = mach.load_limit
        assert base == 1024 - 32
        with mach.memory.lease(500, "held"):
            assert mach.load_limit == 1024 - 500 - 32
        assert mach.load_limit == base

    def test_floors_at_one_block(self):
        mach = Machine(memory=1024, block=16)
        with mach.memory.lease(1020, "held"):
            assert mach.load_limit == mach.B


class TestMergeLimits:
    def test_merge_beyond_memory_rejected(self):
        mach = Machine(memory=128, block=16)  # 2kB lease: k <= 4 - eps
        files = []
        for i in range(8):
            recs = sort_records(random_permutation(100, seed=i))
            files.append(EMFile.from_records(mach, recs, counted=False))
        with BlockWriter(mach) as writer:
            with pytest.raises(MemoryBudgetError):
                merge_sorted_files(mach, files, writer)
            writer.abort()
        assert mach.memory.in_use == 0


class TestVerifyEdges:
    def test_check_splitters_k1(self):
        from repro.analysis.verify import check_splitters
        from repro.em.records import empty_records

        data = random_permutation(50, seed=1)
        sizes = check_splitters(data, empty_records(0), 0, 50, 1)
        assert list(sizes) == [50]

    def test_induced_sizes_no_splitters(self):
        from repro.analysis.verify import induced_partition_sizes
        from repro.em.records import empty_records

        data = random_permutation(10, seed=2)
        assert list(induced_partition_sizes(data, empty_records(0))) == [10]


class TestProbabilisticEdges:
    def test_k1_window(self):
        from repro.bounds.probabilistic import sample_size_for_window

        # K=1: a single bucket, any slack makes the requirement trivial
        # (still returns at least k samples).
        s = sample_size_for_window(1000, 1, 500, 2000, 0.05)
        assert s >= 1


class TestPartitionedEdges:
    def test_materialize_empty(self):
        from repro.alg.partitioned import PartitionedFile

        mach = Machine(memory=256, block=8)
        pf = PartitionedFile(mach, [], [], [0, 0])
        out, sizes = pf.materialize()
        assert len(out) == 0 and sizes == [0, 0]
        assert pf.to_numpy_partitions()[0].shape == (0,)


class TestSpecReprs:
    def test_problem_params_grounding_labels(self):
        from repro.core.spec import grounding, validate_params

        assert grounding(validate_params(100, 4, 0, 50)) == "left"
        assert grounding(validate_params(100, 4, 10, 100)) == "right"
        assert grounding(validate_params(100, 4, 10, 50)) == "two-sided"


class TestChunkyBoundaries:
    def test_multipartition_sizes_one_each(self):
        from repro.alg.multipartition import multi_partition
        from repro.analysis.verify import check_partitioned

        mach = Machine(memory=256, block=8)
        recs = random_permutation(40, seed=3)
        f = load_input(mach, recs)
        pf = multi_partition(mach, f, [1] * 40)
        check_partitioned(recs, pf, 1, 1, 40)

    def test_intermixed_subgroups_cross_chunks(self):
        # One group dominating a multi-chunk file forces subgroup carries
        # across chunk boundaries at every scan.
        from repro.core.intermixed import intermixed_select
        from repro.em import composite

        mach = Machine(memory=256, block=8)
        rng = np.random.default_rng(4)
        n = 3000
        grps = np.zeros(n, dtype=np.int64)
        grps[::97] = 1  # sparse second group
        recs = make_records(rng.permutation(n), grps=grps)
        d = load_input(mach, recs)
        sizes = np.bincount(grps, minlength=2)
        t = np.array([sizes[0] // 2, sizes[1]])
        ans = intermixed_select(mach, d, t)
        for i in range(2):
            g = np.sort(composite(recs)[grps == i])
            assert int(composite(ans[i : i + 1])[0]) == g[t[i] - 1]
