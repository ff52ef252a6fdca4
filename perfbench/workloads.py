"""The benchmark's four workloads: seeded inputs, one repetition, the oracle.

Every workload runs in one process with one closed-loop client: it hands
the system a batch, waits for the answers, then sends the next batch.
Sharded workers use the in-process pool, so nothing runs in parallel.

A *repetition* stages the input (counted block writes), builds the
structure, then plays the whole trace.  Repetitions of one run replay
identical inputs, so every block count must repeat exactly.  Answers are
checked afterwards against a sorted copy of the staged keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Layer entry points are called through their modules, so the tracer's
# wrappers (installed on those modules) see the benchmark's own calls.
from repro import core, shard
from repro.apps.order_stats import rank_of_fraction
from repro.em import EMFile, Machine
from repro.em.records import KEY_MAX
from repro.service import LazyPartitionIndex, QueryFrontend
from repro.service.durability import DurablePartitionIndex
from repro.workloads.generators import random_permutation
from repro.workloads.queries import mixed_query_trace, update_batches, zipfian_trace

#: Every machine in the benchmark: M = 4096 records, B = 64 records.
MEMORY, BLOCK = 4096, 64

#: Offset separating the trace seed from the input seed.
TRACE_SEED = 1_000_003

SIZES = {
    "offline-partition": {"n": 2**18, "k": 64, "a_partition": 1024,
                          "a_splitters": 512, "ranks": 256},
    "service-zipfian": {"n": 2**20, "k": 256, "queries": 4096, "batch": 16,
                        "alpha": 1.1},
    "shard-mixed": {"n": 2**18, "k": 256, "shards": 4, "queries": 2048,
                    "batch": 16},
    "service-churn": {"n": 2**17, "k": 64, "snapshot_every": 8, "rounds": 64,
                      "appends": 48, "deletes": 16, "ranks": 16, "alpha": 1.1},
}

#: Tiny sizes for the smoke test: every code path, in well under a second.
SMOKE_SIZES = {
    "offline-partition": {"n": 2**14, "k": 8, "a_partition": 512,
                          "a_splitters": 256, "ranks": 32},
    "service-zipfian": {"n": 2**14, "k": 16, "queries": 256, "batch": 16,
                        "alpha": 1.1},
    "shard-mixed": {"n": 2**14, "k": 16, "shards": 4, "queries": 256,
                    "batch": 16},
    "service-churn": {"n": 2**13, "k": 8, "snapshot_every": 4, "rounds": 16,
                      "appends": 48, "deletes": 16, "ranks": 16, "alpha": 1.1},
}


class Probe:
    """Every machine one repetition builds, and its set-up/trace marks.

    ``on_mark(label)`` is called at ``"setup"`` (structure built) and
    ``"trace"`` (trace answered) so a tracer can split its statistics.
    """

    def __init__(self) -> None:
        self.machines: list[Machine] = []
        self.on_mark = None

    def io(self) -> int:
        """Lifetime block transfers summed over every machine."""
        return sum(m.disk.lifetime.total for m in self.machines)

    def mark(self, label: str) -> None:
        if self.on_mark is not None:
            self.on_mark(label)


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    setup_io: int
    sim_io: int = 0
    ops: int = 0
    #: Latency of every client batch, in milliseconds.
    batch_ms: list[float] = field(default_factory=list)
    #: Latency of every ``flush_updates()``, in milliseconds.
    update_ms: list[float] = field(default_factory=list)
    answers: object = None


class _Timer:
    """Splits one repetition into set-up and trace: set-up time, and the
    block transfers of each part."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.t0 = perf_counter()
        self.io0 = probe.io()

    def setup_done(self) -> Rep:
        rep = Rep(perf_counter() - self.t0, self.probe.io() - self.io0)
        self.probe.mark("setup")
        self.io0 = self.probe.io()
        return rep

    def trace_done(self, rep: Rep) -> None:
        rep.sim_io = self.probe.io() - self.io0
        self.probe.mark("trace")


def _stage(records: np.ndarray) -> tuple[Machine, EMFile]:
    machine = Machine(MEMORY, BLOCK)
    return machine, EMFile.from_records(machine, records)


def _sorted_keys(inputs: dict) -> np.ndarray:
    """The oracle: the staged keys, sorted (computed once per run)."""
    if "sorted_keys" not in inputs:
        keys = np.sort(inputs["records"]["key"])
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("the oracle assumes distinct keys")
        inputs["sorted_keys"] = keys
    return inputs["sorted_keys"]


# ----------------------------------------------------------------------
# offline-partition: the paper's three algorithms over one input
# ----------------------------------------------------------------------
class OfflinePartition:
    def inputs(self, sizes: dict, seed: int) -> dict:
        n = sizes["n"]
        return {
            "records": random_permutation(n, seed=seed),
            "ranks": np.linspace(1, n, sizes["ranks"]).astype(np.int64),
        }

    def rep(self, sizes: dict, inputs: dict, probe: Probe, setup_only=False) -> Rep:
        n, k = sizes["n"], sizes["k"]
        timer = _Timer(probe)
        machine, f = _stage(inputs["records"])
        rep = timer.setup_done()
        if not setup_only:
            calls = (
                lambda: core.approximate_partition(machine, f, k, sizes["a_partition"], n),
                lambda: core.right_grounded_splitters(machine, f, k, sizes["a_splitters"]),
                lambda: core.multi_select(machine, f, inputs["ranks"]),
            )
            results = []
            for call in calls:
                t = perf_counter()
                results.append(call())
                rep.batch_ms.append(1e3 * (perf_counter() - t))
            timer.trace_done(rep)
            rep.ops = len(calls) * n
            partitioned, splitters, selected = results
            rep.answers = (
                [p["key"] for p in partitioned.to_numpy_partitions()],
                splitters.splitters["key"].copy(),
                selected["key"].copy(),
            )
            partitioned.free()
        f.free()
        machine.close()
        return rep

    def check(self, sizes: dict, inputs: dict, answers) -> tuple[int, int]:
        keys = _sorted_keys(inputs)
        parts, splitters, selected = answers
        failed = 0
        # Partition: K parts of size >= a covering the keys, in key order.
        sizes_ok = len(parts) == sizes["k"] and all(
            len(p) >= sizes["a_partition"] for p in parts
        )
        joined = np.concatenate([np.sort(p) for p in parts])
        failed += int(not (sizes_ok and np.array_equal(joined, keys)))
        # Splitters: K-1 keys, each of the K induced parts of size >= a.
        ranks = np.searchsorted(keys, np.sort(splitters), side="right")
        gaps = np.diff(np.concatenate(([0], ranks, [len(keys)])))
        failed += int(
            len(splitters) != sizes["k"] - 1
            or not np.all(gaps >= sizes["a_splitters"])
        )
        # Multi-selection: rank r holds the r-th smallest key.
        failed += int(np.sum(selected != keys[inputs["ranks"] - 1]))
        return 2 + len(selected), failed


# ----------------------------------------------------------------------
# service-zipfian: the lazy engine behind the batching frontend
# ----------------------------------------------------------------------
class ServiceZipfian:
    def inputs(self, sizes: dict, seed: int) -> dict:
        n = sizes["n"]
        return {
            "records": random_permutation(n, seed=seed),
            "ranks": zipfian_trace(
                sizes["queries"], n, seed=seed + TRACE_SEED, alpha=sizes["alpha"]
            ),
        }

    def rep(self, sizes: dict, inputs: dict, probe: Probe, setup_only=False) -> Rep:
        timer = _Timer(probe)
        machine, f = _stage(inputs["records"])
        engine = LazyPartitionIndex(machine, f, k=sizes["k"])
        frontend = QueryFrontend(machine, engine)
        rep = timer.setup_done()
        if not setup_only:
            answers = []
            batch = sizes["batch"]
            ranks = inputs["ranks"].tolist()
            for lo in range(0, len(ranks), batch):
                t = perf_counter()
                for rank in ranks[lo : lo + batch]:
                    frontend.select(rank)
                answers.extend(frontend.flush())
                rep.batch_ms.append(1e3 * (perf_counter() - t))
            timer.trace_done(rep)
            rep.ops = len(ranks)
            rep.answers = np.array([rec["key"] for rec in answers])
        engine.close()
        f.free()
        machine.close()
        return rep

    def check(self, sizes: dict, inputs: dict, answers) -> tuple[int, int]:
        keys = _sorted_keys(inputs)
        want = keys[inputs["ranks"] - 1]
        return len(want), int(np.sum(answers != want))


# ----------------------------------------------------------------------
# shard-mixed: W in-process workers behind the router
# ----------------------------------------------------------------------
class ShardMixed:
    def inputs(self, sizes: dict, seed: int) -> dict:
        n = sizes["n"]
        return {
            "records": random_permutation(n, seed=seed),
            # The client first reads a K-quantile summary, which refines
            # every shard to its leaf size; without it the cost of the
            # early range counts (which scan unrefined nodes) swings the
            # trace's block count by 10% from seed to seed.
            "queries": [("quantile", (i + 0.5) / sizes["k"]) for i in range(sizes["k"])]
            + mixed_query_trace(sizes["queries"], n, seed=seed + TRACE_SEED),
        }

    def rep(self, sizes: dict, inputs: dict, probe: Probe, setup_only=False) -> Rep:
        timer = _Timer(probe)
        machine, f = _stage(inputs["records"])
        router = shard.build_sharded_service(
            machine, f, shards=sizes["shards"], k=sizes["k"]
        )
        frontend = QueryFrontend(machine, router)
        rep = timer.setup_done()
        if not setup_only:
            answers = []
            batch = sizes["batch"]
            queries = inputs["queries"]
            for lo in range(0, len(queries), batch):
                t = perf_counter()
                for query in queries[lo : lo + batch]:
                    frontend.submit(query)
                answers.extend(frontend.flush())
                rep.batch_ms.append(1e3 * (perf_counter() - t))
            timer.trace_done(rep)
            rep.ops = len(queries)
            last_leaf = router.partition_of(KEY_MAX)
            rep.answers = (
                [a if isinstance(a, int) else int(a["key"]) for a in answers],
                last_leaf,
            )
        router.close()
        f.free()
        machine.close()
        return rep

    def check(self, sizes: dict, inputs: dict, answers) -> tuple[int, int]:
        keys = _sorted_keys(inputs)
        got, last_leaf = answers
        n = len(keys)
        failed = 0
        for query, answer in zip(inputs["queries"], got):
            kind = query[0]
            if kind == "select":
                want = int(keys[query[1] - 1])
            elif kind == "quantile":
                want = int(keys[rank_of_fraction(n, query[1]) - 1])
            elif kind == "range_count":
                lo, hi = query[1], query[2]
                want = int(
                    np.searchsorted(keys, hi, side="right")
                    - np.searchsorted(keys, lo, side="right")
                )
            else:  # partition_of: a leaf index, bounded by the final leaf count
                want = answer if 0 <= answer <= last_leaf else -1
            failed += int(answer != want)
        return len(got), failed + int(len(got) != len(inputs["queries"]))


# ----------------------------------------------------------------------
# service-churn: durable eager index under appends, deletes and selects
# ----------------------------------------------------------------------
class ServiceChurn:
    def inputs(self, sizes: dict, seed: int) -> dict:
        n, rounds = sizes["n"], sizes["rounds"]
        records = random_permutation(n, seed=seed)
        return {
            "records": records,
            "plan": update_batches(
                records["key"], rounds, sizes["appends"], sizes["deletes"],
                seed=seed + TRACE_SEED,
            ),
            # Ranks within the initial size stay valid as the index grows.
            "ranks": zipfian_trace(
                rounds * sizes["ranks"], n, seed=seed + 2 * TRACE_SEED,
                alpha=sizes["alpha"],
            ).reshape(rounds, sizes["ranks"]),
        }

    def rep(self, sizes: dict, inputs: dict, probe: Probe, setup_only=False) -> Rep:
        timer = _Timer(probe)
        machine, f = _stage(inputs["records"])
        index = DurablePartitionIndex.build_durable(
            machine, f, sizes["k"], snapshot_every=sizes["snapshot_every"]
        )
        rep = timer.setup_done()
        if not setup_only:
            answers = []
            for ops, ranks in zip(inputs["plan"], inputs["ranks"]):
                t = perf_counter()
                for kind, arg in ops:
                    if kind == "append":
                        index.append(arg)
                    else:
                        index.delete(arg)
                tu = perf_counter()
                index.flush_updates()
                rep.update_ms.append(1e3 * (perf_counter() - tu))
                answers.append(index.batch_select(ranks)["key"].copy())
                rep.batch_ms.append(1e3 * (perf_counter() - t))
            timer.trace_done(rep)
            rep.ops = sum(
                sum(len(arg) if kind == "append" else 1 for kind, arg in ops)
                for ops in inputs["plan"]
            ) + inputs["ranks"].size
            rep.answers = answers
        index.destroy()
        f.free()
        machine.close()
        return rep

    def check(self, sizes: dict, inputs: dict, answers) -> tuple[int, int]:
        # Every key ever live, sorted once; the live set after each round
        # is that sequence under a mask that appends set and deletes clear.
        keys = _sorted_keys(inputs)
        appended = [
            arg for ops in inputs["plan"] for kind, arg in ops if kind == "append"
        ]
        universe = np.sort(np.concatenate([keys, *appended]))
        position = {int(k): i for i, k in enumerate(universe)}
        alive = np.zeros(len(universe), dtype=bool)
        alive[: len(keys)] = True
        failed = 0
        for ops, ranks, got in zip(inputs["plan"], inputs["ranks"], answers):
            for kind, arg in ops:
                if kind == "append":
                    alive[[position[int(k)] for k in arg]] = True
                else:
                    alive[position[int(arg)]] = False
            live = universe[alive]
            failed += int(np.sum(got != live[ranks - 1]))
        return int(inputs["ranks"].size), failed


WORKLOADS = {
    "offline-partition": OfflinePartition(),
    "service-zipfian": ServiceZipfian(),
    "shard-mixed": ShardMixed(),
    "service-churn": ServiceChurn(),
}
