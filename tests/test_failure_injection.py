"""Failure-injection tests: crash the disk mid-algorithm, check hygiene.

:func:`repro.em.arm_fault` makes the ``k``-th counted I/O raise.  After
the failure propagates out of any algorithm, the *memory* invariant must
hold unconditionally: every lease released (the context-manager
discipline), accountant back to zero.  Disk blocks owned by aborted
writers must also be released; intermediate files already handed over
may remain (documented), so disk checks are per-component where the
contract is strict.
"""

import numpy as np
import pytest

from repro.alg import (
    distribute_by_pivots,
    external_sort,
    multi_partition,
    select_rank,
    select_rank_fast,
)
from repro.baselines import sort_based_partition
from repro.core import (
    approximate_partition,
    approximate_splitters,
    intermixed_select,
    memory_splitters,
    multi_select,
    precise_partition_via_approx,
    right_grounded_partition,
)
from repro.em import InjectedFault, Machine, arm_fault
from repro.em.records import make_records, sort_records
from repro.workloads import load_input, random_permutation


ALGORITHMS = {
    "sort": lambda mach, f: external_sort(mach, f),
    "select-bfprt": lambda mach, f: select_rank(mach, f, len(f) // 2),
    "select-fast": lambda mach, f: select_rank_fast(mach, f, len(f) // 2),
    "multipartition": lambda mach, f: multi_partition(
        mach, f, [len(f) // 4] * 4
    ),
    "memory-splitters": lambda mach, f: memory_splitters(mach, f),
    "multiselect": lambda mach, f: multi_select(
        mach, f, np.linspace(1, len(f), 10).astype(np.int64)
    ),
    "splitters-2s": lambda mach, f: approximate_splitters(
        mach, f, 8, len(f) // 64, len(f) // 2
    ),
    "partition-2s": lambda mach, f: approximate_partition(
        mach, f, 8, len(f) // 64, len(f) // 2
    ),
    "reduction": lambda mach, f: precise_partition_via_approx(
        mach, f, len(f) // 8
    ),
}


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@pytest.mark.parametrize("fail_at", [1, 7, 50, 400])
def test_memory_leases_released_on_midrun_failure(name, fail_at):
    mach = Machine(memory=256, block=8)
    recs = random_permutation(2048, seed=hash(name) % 1000)
    f = load_input(mach, recs)
    arm_fault(mach, fail_at)
    with pytest.raises(InjectedFault):
        ALGORITHMS[name](mach, f)
    assert mach.memory.in_use == 0, (
        f"{name} leaked {mach.memory.in_use} leased records after a fault "
        f"at I/O #{fail_at}"
    )


# Every offset, not a sample: each call closes writers mid-run
# (select's and _split_at's low/high pair, select-fast's zone writer,
# the sort baseline's per-segment cut writer), and a fault at any I/O,
# inside a writer's close included, must still release every lease.
EVERY_OFFSET = {
    "select-bfprt": lambda mach, f: select_rank(mach, f, 256),
    "select-fast": lambda mach, f: select_rank_fast(mach, f, 256),
    "right-grounded": lambda mach, f: right_grounded_partition(mach, f, 8, 8),
    "sort-based-partition": lambda mach, f: sort_based_partition(
        mach, f, 8, 32, 128
    ),
}


def _sweep_input():
    mach = Machine(memory=128, block=8)
    return mach, load_input(mach, random_permutation(512, seed=5))


@pytest.mark.parametrize("name", sorted(EVERY_OFFSET))
def test_memory_leases_released_at_every_offset(name):
    run = EVERY_OFFSET[name]
    mach, f = _sweep_input()
    mach.reset_counters()
    run(mach, f)
    total = mach.io.total
    leaks = []
    for fail_at in range(1, total + 1):
        mach, f = _sweep_input()
        arm_fault(mach, fail_at)
        with pytest.raises(InjectedFault):
            run(mach, f)
        if mach.memory.in_use:
            leaks.append(fail_at)
    assert not leaks, f"{name} leaked leased records at I/Os {leaks} of {total}"


@pytest.mark.parametrize("fail_at", [2, 5, 11])
def test_intermixed_releases_on_failure(fail_at):
    mach = Machine(memory=256, block=8)
    rng = np.random.default_rng(0)
    L = 4
    grps = rng.integers(0, L, size=1500)
    grps[:L] = np.arange(L)
    recs = make_records(rng.integers(0, 10**6, size=1500), grps=grps)
    d = load_input(mach, recs)
    sizes = np.bincount(grps, minlength=L)
    t = rng.integers(1, sizes + 1)
    arm_fault(mach, fail_at)
    with pytest.raises(InjectedFault):
        intermixed_select(mach, d, t)
    assert mach.memory.in_use == 0


def _distribution_input():
    mach = Machine(memory=256, block=8)
    recs = random_permutation(1000, seed=3)
    return mach, load_input(mach, recs), sort_records(recs)[[250, 500, 750]]


def _distribution_io() -> int:
    """I/Os of the pass below: 125 block reads in 5 chunks, each chunk's
    full blocks in one batched write, then 4 tail-block writes."""
    mach, f, pivots = _distribution_input()
    mach.reset_counters()
    distribute_by_pivots(mach, f, pivots)
    return mach.io.total


@pytest.mark.parametrize("fail_at", range(1, _distribution_io() + 1))
def test_writer_abort_path_frees_disk_on_failure(fail_at):
    # The distribution pass must abort cleanly at every one of its I/Os
    # (inside a batched chunk read, inside a chunk's batched write, or at
    # a bucket's tail block): every lease released and every bucket's
    # blocks freed.
    mach, f, pivots = _distribution_input()
    live_before = mach.disk.live_blocks
    arm_fault(mach, fail_at)
    with pytest.raises(InjectedFault):
        distribute_by_pivots(mach, f, pivots)
    assert mach.memory.in_use == 0
    assert mach.disk.live_blocks == live_before


def test_failure_after_completion_is_no_fault():
    # Arming a fault beyond the algorithm's total I/O count must not fire.
    mach = Machine(memory=256, block=8)
    f = load_input(mach, random_permutation(512, seed=4))
    arm_fault(mach, 10**9)
    out = external_sort(mach, f)
    assert len(out) == 512


# ---------------------------------------------------------------------------
# Service-layer chaos: the durable partition service must leave zero
# leaked leases after a kill at any I/O, and its manifest must always be
# recoverable.  The full identity-vs-shadow sweep lives in
# tests/test_durability.py; these entries keep the service in the same
# kill-at-any-I/O harness as the offline algorithms.
# ---------------------------------------------------------------------------


def _service_scenario(mach, f):
    from repro.service import DurablePartitionIndex

    index = DurablePartitionIndex.build_durable(
        mach, f, 8, snapshot_every=2
    )
    try:
        for i in range(4):
            index.append(
                np.arange(10_000 + 32 * i, 10_032 + 32 * i, dtype=np.int64)
            )
            index.delete(10_000 + 32 * i)
            index.flush_updates()
        index.snapshot()
    finally:
        index.abandon()


@pytest.mark.parametrize("fail_at", [1, 7, 25, 60, 120])
def test_service_releases_leases_on_midrun_failure(fail_at):
    # The fault is armed *before* the durable build, so offsets can land
    # inside WAL preformatting and the build-time snapshot too — paths
    # the post-build identity sweep in test_durability.py never reaches.
    mach = Machine(memory=2048, block=32)
    f = load_input(mach, random_permutation(2048, seed=9))
    arm_fault(mach, fail_at)
    try:
        _service_scenario(mach, f)
    except InjectedFault:
        pass
    assert mach.memory.in_use == 0, (
        f"service leaked {mach.memory.in_use} leased records after a "
        f"fault at I/O #{fail_at}"
    )


# ---------------------------------------------------------------------------
# Index builds: a fault at any I/O of a build leaves no lease and no block
# behind.  Same instance as the service scenario above (M=2048, B=32,
# N=2048, K=8); the sweep covers every one of the build's I/Os.
# ---------------------------------------------------------------------------


def _staged_service_input():
    mach = Machine(memory=2048, block=32, sanitize=True)
    return mach, load_input(mach, random_permutation(2048, seed=9))


def _assert_build_aborts_cleanly(build):
    mach, f = _staged_service_input()
    build(mach, f)
    total = mach.io.total
    for fail_at in range(1, total + 1):
        mach, f = _staged_service_input()
        live_before = mach.disk.live_blocks
        arm_fault(mach, fail_at)
        with pytest.raises(InjectedFault):
            build(mach, f)
        assert mach.disk.live_blocks == live_before, f"I/O #{fail_at} of {total}"
        assert mach.memory.in_use == 0, f"I/O #{fail_at} of {total}"
        mach.close()  # sanitize mode: raises on any live lease, even empty


def test_volatile_build_frees_everything_on_failure():
    from repro.service import PartitionIndex

    _assert_build_aborts_cleanly(lambda mach, f: PartitionIndex.build(mach, f, 8))


def test_durable_build_frees_everything_on_failure():
    from repro.service import DurablePartitionIndex

    _assert_build_aborts_cleanly(
        lambda mach, f: DurablePartitionIndex.build_durable(mach, f, 8)
    )
