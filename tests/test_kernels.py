"""Kernel backend selection + cross-backend identity proofs.

The kernel layer (:mod:`repro.em.kernels`) owns block movement and batch
record comparisons; the accounting layer (counters, leases, phases,
traces) stays in ``Disk``/``Machine``.  Running on the ``numpy_v1``
reference instead of the production ``vectorized_v2`` backend must
therefore be *unobservable* in the model: byte-identical answers and
identical counters, per-phase breakdowns, read-id sets, and access
traces.  These tests prove that identity at three levels — primitives,
whole algorithms, the service's query/update paths — and across every
registered experiment in quick mode.
"""

import numpy as np
import pytest

from repro.em import Disk, Machine, composite, get_kernel
from repro.em.kernels import NumpyV1Kernel, VectorizedV2Kernel
from repro.em.records import RECORD_DTYPE, make_records
from repro.workloads import load_input, random_permutation, zipf_like
from repro.workloads.queries import zipfian_trace

#: The reference first, then the production backend.
KERNELS = (NumpyV1Kernel(), VectorizedV2Kernel())


def _records(n, seed=0):
    rng = np.random.default_rng(seed)
    out = np.empty(n, dtype=RECORD_DTYPE)
    out["key"] = rng.integers(0, max(1, n // 2), size=n)  # duplicates
    out["uid"] = rng.permutation(n)
    out["grp"] = 0
    return out


# ----------------------------------------------------------------------
# Selection: one production backend, an instance is the only override
# ----------------------------------------------------------------------
class TestRegistry:
    def test_get_kernel_default_is_production(self):
        assert type(get_kernel()) is VectorizedV2Kernel
        assert Machine(memory=64, block=8).kernel is get_kernel()

    def test_instance_passthrough(self):
        inst = NumpyV1Kernel()
        assert get_kernel(inst) is inst
        assert Machine(memory=64, block=8, kernel=inst).kernel is inst

    def test_kernel_names_rejected(self):
        with pytest.raises(TypeError, match="KernelBackend instance"):
            Machine(memory=64, block=8, kernel="numpy_v1")

    def test_trace_metadata_records_kernel(self):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.install():
            m = Machine(memory=64, block=8, kernel=NumpyV1Kernel())
            m.close()
        (trace,) = tracer.traces
        assert trace.kernel == "numpy_v1"
        assert trace.to_dict()["kernel"] == "numpy_v1"


# ----------------------------------------------------------------------
# Primitive identity
# ----------------------------------------------------------------------
class TestPrimitiveIdentity:
    """Every primitive returns byte-identical output on every backend."""

    @pytest.mark.parametrize("n", [0, 1, 7, 256, 1000])
    def test_sort_by_composite(self, n):
        recs = _records(n, seed=n)
        outs = [k.sort_by_composite(recs) for k in KERNELS]
        for o in outs[1:]:
            assert np.array_equal(outs[0], o)
        if n:
            assert np.all(np.diff(composite(outs[0])) > 0)

    def test_sort_with_tied_composites(self):
        # Multi-selection's intermixed instance holds one copy of a
        # record per requested rank: copies share (key, uid) and differ
        # in grp only.  Here grp is each copy's input position, so the
        # input order of tied composites can be read off the output.
        copies = np.tile(_records(500, seed=11), 3)
        recs = copies[np.random.default_rng(12).permutation(len(copies))]
        recs["grp"] = np.arange(len(recs))
        outs = [k.sort_by_composite(recs) for k in KERNELS]
        for o in outs[1:]:
            assert o.tobytes() == outs[0].tobytes()
        for out in outs:
            comp = composite(out)
            assert np.all(np.diff(comp) >= 0)
            tied = np.diff(comp) == 0
            assert tied.sum() == 1000
            assert np.all(np.diff(out["grp"])[tied] > 0)
            assert np.array_equal(np.sort(out["grp"]), recs["grp"])

    @pytest.mark.parametrize(
        "lo, hi, n",
        [
            (0, 0, 2000), (0, 255, 2000), (0, 256, 2000),
            (0, 65_535, 2000), (0, 65_536, 2000),
            (-3, 29, 2000), (-300, 199, 2000), (-70_000, 69_999, 2000),
            (0, 0, 0),
        ],
    )
    def test_grouping_across_id_widths(self, lo, hi, n):
        # Straddles the 16-bit width the production backend narrows ids
        # to (and the 8-bit one), plus negative ids, which must not be
        # narrowed.
        ids = np.random.default_rng(hi).integers(lo, hi + 1, size=n)
        if n:
            ids[[0, n // 2]] = (lo, hi)
        recs = _records(n, seed=4)
        groups = [
            [(b, r.tobytes()) for b, r in k.group_by_bucket(recs, ids)]
            for k in KERNELS
        ]
        assert [b for b, _ in groups[0]] == np.unique(ids).tolist()
        for g in groups[1:]:
            assert g == groups[0]

    @pytest.mark.parametrize("n", [0, 1, 255, 1000])
    def test_bucket_of_and_grouping(self, n):
        recs = _records(n, seed=n + 1)
        pivots = np.sort(
            np.random.default_rng(5).integers(0, 2**40, size=7)
        )
        idxs = [k.bucket_of(recs, pivots) for k in KERNELS]
        for i in idxs[1:]:
            assert np.array_equal(idxs[0], i)
        groups = [
            list(k.group_by_bucket(recs, idxs[0]))
            for k in KERNELS
        ]
        for g in groups[1:]:
            assert len(g) == len(groups[0])
            for (b0, r0), (b1, r1) in zip(groups[0], g):
                assert b0 == b1
                assert np.array_equal(r0, r1)
        # Groups preserve input order within buckets and skip empties.
        for b, r in groups[0]:
            assert len(r) > 0
            src = recs[idxs[0] == b]
            assert np.array_equal(r, src)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_bucket_of_half_open_convention(self, kernel):
        # Pivots 10, 20: bucket0 = (-inf, 10], bucket1 = (10, 20], bucket2 = rest.
        pivots = make_records(np.array([10, 20]), uids=np.array([100, 200]))
        recs = make_records(
            np.array([5, 10, 11, 20, 21]), uids=np.array([1, 100, 2, 200, 3])
        )
        idx = kernel.bucket_of(recs, composite(pivots))
        assert list(idx) == [0, 0, 1, 1, 2]

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
    def test_bucket_of_tie_breaking_by_uid(self, kernel):
        # Same key as pivot but different uid: uid below pivot's -> same
        # bucket as pivot; uid above -> next bucket.
        pivots = make_records(np.array([10]), uids=np.array([50]))
        recs = make_records(np.array([10, 10]), uids=np.array([49, 51]))
        idx = kernel.bucket_of(recs, composite(pivots))
        assert list(idx) == [0, 1]

    def test_partition_and_rank_order(self):
        recs = _records(512, seed=3)
        kth = np.array([10, 100, 400])
        parts = [k.partition_at(recs, kth) for k in KERNELS]
        orders = [k.rank_order(recs, kth) for k in KERNELS]
        for p in parts[1:]:
            assert np.array_equal(parts[0], p)
        for o in orders[1:]:
            assert np.array_equal(orders[0], o)
        comp = composite(parts[0])
        for b in kth:
            assert comp[:b].max() < comp[b]

    def test_gather_over_mixed_layouts(self):
        # One lenient disk, three layouts: two write_many arenas (the
        # second ends in a partial block), a single-block write that
        # overwrites a block inside the first arena, and allocated
        # blocks never written (empty).  Both backends gather the same
        # physical layout through the disk's block map.
        B = 8
        disk = Disk(B)
        ids = disk.allocate(12)
        first, second, single = (
            _records(5 * B, seed=1), _records(2 * B + 3, seed=2), _records(B, seed=3)
        )
        disk.write_many(ids[0:5], [first])
        disk.write_many(ids[5:8], [second])
        disk.write(ids[2], single)
        stored = {b: first[i * B : (i + 1) * B] for i, b in enumerate(ids[0:5])}
        stored.update({b: second[i * B : (i + 1) * B] for i, b in enumerate(ids[5:8])})
        stored[ids[2]] = single
        blank = ids[8:12]
        stored.update({b: single[:0] for b in blank})
        orders = [
            ids,
            ids[::-1],
            [ids[0], ids[3], ids[1], ids[4], ids[2]],  # skips the overwrite
            [blank[0], ids[6], ids[7], blank[1], ids[5], ids[5]],
            [ids[1], ids[3], ids[4], ids[5], ids[6], ids[7], ids[0]],
            blank,
        ]
        for order in orders:
            want = np.concatenate([stored[b] for b in order]).tobytes()
            for k in KERNELS:
                out = k.gather_blocks(disk._blocks, order)
                assert out.dtype == RECORD_DTYPE
                assert out.tobytes() == want, f"{k.name} gathers {order}"

    def test_concat(self):
        parts = [_records(n, seed=n) for n in (0, 3, 64, 1)]
        outs = [k.concat(parts) for k in KERNELS]
        for o in outs[1:]:
            assert np.array_equal(outs[0], o)
        assert len(outs[0]) == 68
        empty = [k.concat([]) for k in KERNELS]
        for e in empty:
            assert len(e) == 0 and e.dtype == RECORD_DTYPE


# ----------------------------------------------------------------------
# Whole-algorithm identity: counters, phases, traces, bytes
# ----------------------------------------------------------------------
def _run_traced(kernel, scenario, **mach_kw):
    """Run ``scenario(machine)`` under one backend; return the full
    observable state: (reads, writes, per-phase, comparisons, mem peak,
    access trace, output bytes)."""
    mach_kw.setdefault("memory", 512)
    mach_kw.setdefault("block", 16)
    mach = Machine(kernel=kernel, **mach_kw)
    mach.disk.start_trace()
    out = scenario(mach)
    c = mach.snapshot()
    state = (
        c.reads,
        c.writes,
        dict(c.by_phase),
        mach.comparisons,
        mach.memory.peak,
        mach.disk.stop_trace(),
    )
    return state, np.asarray(out)


def _assert_identical(scenario, **mach_kw):
    ref_state, ref_out = _run_traced(KERNELS[0], scenario, **mach_kw)
    for kernel in KERNELS[1:]:
        state, out = _run_traced(kernel, scenario, **mach_kw)
        assert state[:5] == ref_state[:5], f"counters diverge on {kernel.name}"
        assert state[5] == ref_state[5], f"trace diverges on {kernel.name}"
        assert out.tobytes() == ref_out.tobytes(), f"bytes diverge on {kernel.name}"


class TestAlgorithmIdentity:
    N = 3000

    def test_external_sort(self):
        recs = random_permutation(self.N, seed=1)

        def scenario(mach):
            from repro.alg.sort import external_sort

            f = load_input(mach, recs)
            out = external_sort(mach, f)
            data = out.to_numpy()
            out.free()
            f.free()
            return data

        _assert_identical(scenario)

    def test_multipartition(self):
        recs = zipf_like(self.N, seed=2)

        def scenario(mach):
            from repro.alg.multipartition import multi_partition_at_ranks

            f = load_input(mach, recs)
            parts = multi_partition_at_ranks(mach, f, [500, 1500, 2500])
            data = np.concatenate(
                [composite(p) for p in parts.to_numpy_partitions()]
            )
            parts.free()
            f.free()
            return data

        _assert_identical(scenario)

    def test_selection(self):
        recs = random_permutation(self.N, seed=3)

        def scenario(mach):
            from repro.alg.selection import select_rank_fast

            f = load_input(mach, recs)
            x = select_rank_fast(mach, f, self.N // 3)
            f.free()
            return np.array([x])

        _assert_identical(scenario)

    def test_multiselect(self):
        recs = zipf_like(self.N, seed=4)
        ranks = np.random.default_rng(7).integers(1, self.N + 1, size=24)

        def scenario(mach):
            from repro.core import multi_select

            f = load_input(mach, recs)
            out = multi_select(mach, f, ranks)
            f.free()
            return out

        _assert_identical(scenario)

    def test_splitters(self):
        recs = random_permutation(self.N, seed=5)

        def scenario(mach):
            from repro.core import approximate_splitters

            f = load_input(mach, recs)
            res = approximate_splitters(
                mach, f, 16, self.N // 64, self.N // 4
            )
            f.free()
            return res.splitters

        _assert_identical(scenario)

    def test_service_queries_and_updates(self):
        recs = random_permutation(4000, seed=6)
        trace = zipfian_trace(64, 4000, seed=8)

        def scenario(mach):
            from repro.service import PartitionIndex

            f = load_input(mach, recs)
            index = PartitionIndex.build(mach, f, 16)
            f.free()
            got = [index.batch_select(trace)]
            index.append(np.arange(10**6, 10**6 + 300))
            for key in np.sort(recs["key"])[:120]:
                index.delete(int(key))
            index.flush_updates()
            got.append(index.batch_select(np.arange(1, index.n_live + 1)))
            index.close()
            return np.concatenate([composite(g) for g in got])

        _assert_identical(scenario, memory=2048, block=32)


# ----------------------------------------------------------------------
# Experiment-level identity: all registered experiments, quick mode
# ----------------------------------------------------------------------
def _experiment_ids():
    from repro.experiments import all_experiments

    return [e.exp_id for e in all_experiments()]


@pytest.mark.parametrize("exp_id", _experiment_ids())
def test_experiment_identity_across_kernels(exp_id, monkeypatch):
    """Every experiment produces the identical result and identical
    aggregate machine counters under every backend."""
    from repro.em.machine import observe_machines
    from repro.experiments import get_experiment

    outcomes = []
    for kernel in KERNELS:
        monkeypatch.setattr("repro.em.kernels._PRODUCTION", kernel)
        machines = []
        with observe_machines(machines.append):
            result = get_experiment(exp_id)(quick=True)
        outcomes.append(
            (
                result.to_dict(),
                len(machines),
                sum(m.disk.lifetime.reads for m in machines),
                sum(m.disk.lifetime.writes for m in machines),
                sum(m.lifetime_comparisons for m in machines),
                max((m.memory.peak for m in machines), default=0),
            )
        )
    ref = outcomes[0]
    for kernel, other in zip(KERNELS[1:], outcomes[1:]):
        assert other == ref, f"{exp_id} diverges under kernel {kernel.name}"
