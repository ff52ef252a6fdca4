"""Micro-benchmarks of the EM substrate operations.

These time the *simulator* (wall clock) while recording the simulated
I/O count in ``extra_info`` — useful to keep the simulation overhead per
simulated I/O visible when the substrate evolves.

``test_batched_vs_single_scan`` is the differential benchmark for the
batched I/O fast path: it asserts the batched scan charges *identical*
I/O counters to the per-block scan, measures the wall-clock speedup at
``B = 64`` / ``N = 1e6``-scale, and records both in
``benchmarks/out/SUBSTRATE_BATCH.txt``.  Set ``REPRO_BENCH_FULL=1`` for
the full-size sweep (the default is a smaller smoke size for CI).
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.alg import (
    approx_quantile_pivots,
    distribute_by_pivots,
    external_sort,
    multi_partition,
    select_rank,
    select_rank_fast,
)
from repro.core import intermixed_select, memory_splitters, multi_select
from repro.em import Machine, composite, scan_chunks
from repro.em.records import make_records, sort_records
from repro.workloads import load_input, random_permutation

N = 30_000


def _machine_and_input(seed=0):
    mach = Machine(memory=4096, block=64)
    recs = random_permutation(N, seed=seed)
    return mach, recs, load_input(mach, recs)


def _run(benchmark, mach, fn):
    def task():
        mach.reset_counters()
        out = fn()
        return out

    benchmark.pedantic(task, rounds=3, iterations=1)
    benchmark.extra_info["simulated_io"] = mach.io.total
    benchmark.extra_info["n"] = N
    benchmark.extra_info["io_per_block"] = mach.io.total / (N / mach.B)


def test_micro_scan(benchmark):
    mach, recs, f = _machine_and_input()
    def scan():
        total = 0
        for i in range(f.num_blocks):
            total += len(f.read_block(i))
        return total
    _run(benchmark, mach, scan)


def test_micro_scan_batched(benchmark):
    mach, recs, f = _machine_and_input()
    def scan():
        total = 0
        with scan_chunks(f, mach.load_limit, "bench-scan") as chunks:
            for chunk in chunks:
                total += len(chunk)
        return total
    _run(benchmark, mach, scan)


def test_micro_external_sort(benchmark):
    mach, recs, f = _machine_and_input(1)
    outs = []
    def task():
        out = external_sort(mach, f)
        outs.append(out)
        return out
    _run(benchmark, mach, task)
    for out in outs:
        out.free()


def test_micro_distribute(benchmark):
    mach, recs, f = _machine_and_input(2)
    pivots = sort_records(recs)[:: N // 16][1:]
    buckets_list = []
    def task():
        buckets = distribute_by_pivots(mach, f, pivots)
        buckets_list.extend(buckets)
        return buckets
    _run(benchmark, mach, task)
    for b in buckets_list:
        b.free()


def test_micro_pivot_cascade(benchmark):
    mach, recs, f = _machine_and_input(3)
    _run(benchmark, mach, lambda: approx_quantile_pivots(mach, f, 29))


def test_micro_select_bfprt(benchmark):
    mach, recs, f = _machine_and_input(4)
    _run(benchmark, mach, lambda: select_rank(mach, f, N // 2))


def test_micro_select_fast(benchmark):
    mach, recs, f = _machine_and_input(5)
    _run(benchmark, mach, lambda: select_rank_fast(mach, f, N // 2))


def test_micro_memory_splitters(benchmark):
    mach, recs, f = _machine_and_input(6)
    _run(benchmark, mach, lambda: memory_splitters(mach, f))


def test_micro_multiselect_small_k(benchmark):
    mach, recs, f = _machine_and_input(7)
    ranks = np.linspace(1, N, 8).astype(np.int64)
    _run(benchmark, mach, lambda: multi_select(mach, f, ranks))


def test_micro_multipartition(benchmark):
    mach, recs, f = _machine_and_input(8)
    pfs = []
    def task():
        pf = multi_partition(mach, f, [N // 8] * 8)
        pfs.append(pf)
        return pf
    _run(benchmark, mach, task)
    for pf in pfs:
        pf.free()


def _time_best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_batched_vs_single_scan():
    """Differential: batched full-file scan vs per-block, same I/O model.

    Asserts byte-identical counters / phases / read ids / traces, then
    requires the batched path to be at least 2x faster wall-clock.
    """
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    n = 1_000_000 if full else 200_000
    B = 64
    mach = Machine(memory=64 * B, block=B)
    f = load_input(mach, random_permutation(n, seed=0))
    nblocks = f.num_blocks

    def single_scan():
        total = 0
        for i in range(nblocks):
            total += len(f.read_block(i))
        return total

    def batched_scan():
        total = 0
        with scan_chunks(f, mach.load_limit, "batch-scan") as chunks:
            for chunk in chunks:
                total += len(chunk)
        return total

    def measure(scan):
        mach.reset_counters()
        mach.disk.start_trace()
        with mach.phase("scan"):
            seconds, total = _time_best_of(scan)
        assert total == n
        snap = mach.snapshot()
        reads = {bid for op, bid in mach.disk.stop_trace() if op == "r"}
        return seconds, snap, reads

    t_single, io_single, ids_single = measure(single_scan)
    t_batched, io_batched, ids_batched = measure(batched_scan)
    # One isolated trace window per path (reset fences the trace, but the
    # best-of timing loop scans several times; compare single passes).
    mach.reset_counters()
    mach.disk.start_trace()
    single_scan()
    trace_single = mach.disk.stop_trace()
    mach.reset_counters()
    mach.disk.start_trace()
    batched_scan()
    trace_batched = mach.disk.stop_trace()

    # Model fidelity: the fast path must be invisible to the cost model.
    assert io_batched.reads == io_single.reads == 3 * nblocks
    assert io_batched.writes == io_single.writes == 0
    assert io_batched.by_phase == io_single.by_phase
    assert ids_batched == ids_single
    assert trace_batched == trace_single

    speedup = t_single / t_batched
    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "SUBSTRATE_BATCH.txt").write_text(
        "Batched vs single-block full-file scan "
        "(Disk.read_many via EMFile.read_range / scan_chunks)\n"
        f"  mode            : {'full' if full else 'smoke'}\n"
        f"  N               : {n}\n"
        f"  B               : {B}\n"
        f"  blocks          : {nblocks}\n"
        f"  reads (single)  : {io_single.reads}\n"
        f"  reads (batched) : {io_batched.reads}\n"
        f"  counters equal  : True (reads, writes, by_phase, read ids, trace)\n"
        f"  wall single     : {t_single * 1e3:.2f} ms\n"
        f"  wall batched    : {t_batched * 1e3:.2f} ms\n"
        f"  speedup         : {speedup:.2f}x\n"
    )
    assert speedup >= 2.0, f"batched scan only {speedup:.2f}x faster"


def test_micro_intermixed(benchmark):
    mach = Machine(memory=4096, block=64)
    rng = np.random.default_rng(9)
    L = 32
    grps = rng.integers(0, L, size=N)
    grps[:L] = np.arange(L)
    recs = make_records(rng.integers(0, 2**30, size=N), grps=grps)
    d = load_input(mach, recs)
    sizes = np.bincount(grps, minlength=L)
    t = rng.integers(1, sizes + 1)
    _run(benchmark, mach, lambda: intermixed_select(mach, d, t))
