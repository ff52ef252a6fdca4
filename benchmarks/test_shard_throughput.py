"""Wall-clock benchmark of the sharded service with process workers.

Answers one ``shard-skew`` select trace twice, on one machine's lazy
engine and on a four-shard service whose workers are OS processes,
asserts the two answer lists element-identical, and asserts the
sharded run at least 2x faster.  Each wall time runs from building
the engine to closing it, so the sharded one includes splitting the
file and starting and stopping the workers.

The speedup is only asserted when the host has >= 4 CPUs (four worker
processes cannot beat one process on fewer cores); the measured times
are printed either way.  Answer identity at every shard count and the
charged communication are tier-1 (``tests/test_shard.py``) and the
``SHARDS`` experiment; this file adds only the wall-clock gate.

Run directly (not part of tier-1):

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_shard_throughput.py
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.em import Machine, composite
from repro.service import LazyPartitionIndex, Query, QueryFrontend
from repro.shard import build_sharded_service
from repro.workloads import load_input
from repro.workloads.generators import random_permutation
from repro.workloads.queries import QUERY_TRACES

N, K, QUERIES, SEED = 2**16, 64, 128, 0
SHARDS = 4
BATCH = 64
MEMORY, BLOCK = 4096, 64
MIN_SPEEDUP = 2.0


def _answer(records, queries, build):
    """Answer ``queries`` through the engine ``build(machine, file)``
    returns, on a fresh machine: the answers' composites and the wall
    time from the build through the engine's close."""
    machine = Machine(memory=MEMORY, block=BLOCK)
    file = load_input(machine, records)
    machine.reset_counters()
    t0 = time.perf_counter()
    with build(machine, file) as engine:
        answers = QueryFrontend(machine, engine).run(queries, batch=BATCH)
    wall = time.perf_counter() - t0
    file.free()
    machine.close()
    return composite(np.array(answers, dtype=records.dtype)), wall


def test_process_shards_beat_one_machine():
    records = random_permutation(N, seed=SEED)
    trace = QUERY_TRACES["shard-skew"](QUERIES, N, seed=SEED, shards=SHARDS)
    queries = [Query.select(int(r)) for r in trace]

    single, t_single = _answer(
        records, queries, lambda m, f: LazyPartitionIndex(m, f, k=K)
    )
    sharded, t_sharded = _answer(
        records,
        queries,
        lambda m, f: build_sharded_service(
            m, f, shards=SHARDS, k=K, workers="process"
        ),
    )

    cores = os.cpu_count() or 1
    speedup = t_single / t_sharded
    print(
        f"\nshard-skew trace, N={N} K={K} Q={QUERIES} W={SHARDS} process "
        f"workers, {cores} CPU(s): one machine {t_single:.2f} s, sharded "
        f"{t_sharded:.2f} s ({speedup:.2f}x; asserted >= {MIN_SPEEDUP}x "
        f"only on >= {SHARDS} CPUs)"
    )

    assert np.array_equal(single, sharded)
    if cores >= SHARDS:
        assert speedup >= MIN_SPEEDUP, (
            f"sharded service only {speedup:.2f}x faster than one machine "
            f"on {cores} CPUs"
        )
