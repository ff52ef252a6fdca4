"""Registry of traceable/budgeted solvers.

One place that knows, for each headline algorithm, (a) how to run it on
a generated workload, (b) the paper's Θ-shape for its I/O cost from
:mod:`repro.bounds.formulas`, and (c) a deterministic reference point
``(N, K, a, M, B, seed)``.  Both observability features build on it:

* ``repro trace <solver>`` runs one entry under a
  :class:`~repro.obs.tracer.Tracer` and exports the span tree;
* the I/O-budget gate (:mod:`repro.obs.budget`) replays every entry at
  its reference point and checks the measured I/O count against a
  committed constant-factor envelope of the Θ-shape.

Workloads come from :func:`repro.workloads.generators.random_permutation`
with a fixed seed and every algorithm here is deterministic given its
seed, so measured I/O counts are bit-for-bit reproducible — exact
equality regressions, not tolerances, are what the budget gate relies
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..bounds.formulas import (
    multiselect_io,
    online_trace_io,
    partition_left_bound,
    partition_right_upper,
    scan_io,
    service_index_io,
    service_recovery_io,
    sharded_service_io,
    sort_io,
    splitters_right_bound,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..em.file import EMFile
    from ..em.machine import Machine

__all__ = ["Solver", "SOLVERS", "build_instance", "run_solver"]


@dataclass(frozen=True)
class Solver:
    """A registered solver: how to run it and what its cost should be.

    ``run(machine, file, params)`` executes the algorithm (freeing any
    output files it creates) and returns a one-line outcome string;
    ``formula(params)`` evaluates the paper's Θ-shape at a parameter
    point (same dict shape as ``defaults``).
    """

    name: str
    title: str
    defaults: dict
    formula: Callable[[dict], float]
    formula_name: str
    run: Callable[["Machine", "EMFile", dict], str]


def _ranks(n: int, k: int) -> np.ndarray:
    return np.linspace(1, n, k).astype(np.int64)


def _run_sort(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..alg.sort import external_sort

    out = external_sort(machine, file)
    n = len(out)
    out.free()
    return f"sorted {n} records"


def _run_multiselect(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..core import multi_select

    answers = multi_select(machine, file, _ranks(p["n"], p["k"]))
    return f"selected {len(answers)} ranks"


def _run_splitters(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..core import right_grounded_splitters

    res = right_grounded_splitters(machine, file, p["k"], p["a"])
    return f"{len(res.splitters)} splitters ({res.variant})"


def _run_partition(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..core import approximate_partition

    pf = approximate_partition(machine, file, p["k"], p["a"], p["n"])
    sizes = pf.partition_sizes
    pf.free()
    return f"{len(sizes)} partitions, sizes in [{min(sizes)}, {max(sizes)}]"


def _run_reduction(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..core import precise_partition_via_approx

    pf = precise_partition_via_approx(machine, file, p["part_size"])
    parts = pf.num_partitions
    pf.free()
    return f"{parts} precise partitions of {p['part_size']}"


def _run_service_online(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..service import LazyPartitionIndex, Query, QueryFrontend
    from ..workloads.queries import zipfian_trace

    trace = zipfian_trace(p["queries"], p["n"], seed=p["seed"], alpha=1.1)
    with LazyPartitionIndex(machine, file, k=p["k"]) as engine:
        frontend = QueryFrontend(machine, engine)
        frontend.run([Query.select(int(r)) for r in trace], batch=64)
        refinements = engine.stats["refinements"]
    return (
        f"{p['queries']} queries, {refinements} refinements, "
        f"{frontend.amortized_io:.1f} I/Os/query"
    )


def _run_service_sharded(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..service import Query, QueryFrontend
    from ..shard import build_sharded_service
    from ..workloads.queries import zipfian_trace

    trace = zipfian_trace(p["queries"], p["n"], seed=p["seed"], alpha=1.1)
    with build_sharded_service(
        machine, file, shards=p["shards"], k=p["k"]
    ) as router:
        frontend = QueryFrontend(machine, router)
        frontend.run([Query.select(int(r)) for r in trace], batch=64)
        sizes = router.shard_sizes
    return (
        f"{p['shards']} shards (sizes {int(sizes.min())}..{int(sizes.max())}), "
        f"{p['queries']} queries, {frontend.amortized_io:.1f} I/Os/query"
    )


def _run_service_index(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..service import PartitionIndex
    from ..workloads.queries import uniform_trace

    q = p["queries"]
    trace = uniform_trace(q, p["n"], seed=p["seed"])
    with PartitionIndex.build(machine, file, p["k"]) as index:
        index.batch_select(trace[: q // 2])
        index.append((trace[: q // 4] * 3) % p["n"])
        for key in np.unique(trace[: q // 8] % p["n"]):
            index.delete(int(key))
        index.flush_updates()
        index.batch_select((trace[q // 2 :] % index.n_live) + 1)
        parts = index.n_leaves
        stats = dict(index.stats)
    return (
        f"{parts} partitions after {q} queries + {q // 4 + q // 8} updates "
        f"({stats['splits']} splits, {stats['merges']} merges)"
    )


def _run_service_recovery(machine: "Machine", file: "EMFile", p: dict) -> str:
    from ..service import DurablePartitionIndex, recover
    from ..workloads.generators import random_permutation
    from ..workloads.queries import update_batches, zipfian_trace

    # snapshot_every=3 with 8 flush groups leaves two committed groups
    # in the WAL past the last snapshot, so recovery exercises replay.
    index = DurablePartitionIndex.build_durable(
        machine, file, p["k"], snapshot_every=3
    )
    # The staged input is a seeded permutation of 0..n-1; regenerate it
    # (free CPU, zero I/O) to drive a live-key-aware update plan.
    keys = random_permutation(p["n"], seed=p["seed"])["key"]
    n_batches = max(1, p["updates"] // 64)
    plan = update_batches(keys, n_batches, 48, 16, seed=p["seed"])
    for batch in plan:
        for op in batch:
            if op[0] == "append":
                index.append(op[1])
            else:
                index.delete(op[1])
        index.flush_updates()
    manifest = index.manifest_block
    index.abandon()  # simulated crash: memory gone, disk survives
    # The envelope prices *recovery* (manifest + snapshot + WAL replay +
    # re-snapshot) plus the verification trace, not the crashed run.
    machine.reset_counters()
    recovered = recover(machine, manifest)
    trace = zipfian_trace(p["queries"], recovered.n_live, seed=p["seed"])
    recovered.batch_select(trace)
    groups = recovered.applied_seq
    n_live = recovered.n_live
    recovered.abandon()
    return (
        f"recovered {groups} committed groups, {n_live} live records, "
        f"{p['queries']} verification queries"
    )


def _reduction_formula(p: dict) -> float:
    # Approx (left-grounded) partition plus the §3 sweep's O(N/B).
    n, b = p["n"], p["part_size"]
    return partition_left_bound(
        n, -(-n // b), b, p["memory"], p["block"]
    ) + scan_io(n, p["block"])


#: name -> Solver.  Reference points use the wide machine (M=4096,
#: B=64) and sizes small enough that replaying every entry takes
#: seconds, but large enough that each algorithm leaves its base case.
SOLVERS: dict[str, Solver] = {
    s.name: s
    for s in [
        Solver(
            name="sort",
            title="external merge sort (the §1.2 baseline)",
            defaults=dict(n=20_000, k=0, a=0, part_size=0,
                          memory=4096, block=64, seed=0),
            formula=lambda p: sort_io(p["n"], p["memory"], p["block"]),
            formula_name="sort_io",
            run=_run_sort,
        ),
        Solver(
            name="multiselect",
            title="multi-selection (Theorem 4)",
            defaults=dict(n=20_000, k=64, a=0, part_size=0,
                          memory=4096, block=64, seed=0),
            formula=lambda p: multiselect_io(
                p["n"], p["k"], p["memory"], p["block"]
            ),
            formula_name="multiselect_io",
            run=_run_multiselect,
        ),
        Solver(
            name="splitters",
            title="right-grounded approximate K-splitters (Theorem 5)",
            defaults=dict(n=40_000, k=64, a=32, part_size=0,
                          memory=4096, block=64, seed=0),
            formula=lambda p: splitters_right_bound(
                p["n"], p["k"], p["a"], p["memory"], p["block"]
            ),
            formula_name="splitters_right_bound",
            run=_run_splitters,
        ),
        Solver(
            name="partition",
            title="right-grounded approximate K-partitioning (Theorem 6)",
            defaults=dict(n=20_000, k=16, a=128, part_size=0,
                          memory=4096, block=64, seed=0),
            formula=lambda p: partition_right_upper(
                p["n"], p["k"], p["a"], p["memory"], p["block"]
            ),
            formula_name="partition_right_upper",
            run=_run_partition,
        ),
        Solver(
            name="reduction",
            title="precise partitioning via approximate (§3 reduction)",
            defaults=dict(n=20_000, k=0, a=0, part_size=500,
                          memory=4096, block=64, seed=0),
            formula=_reduction_formula,
            formula_name="partition_left_bound + scan_io",
            run=_run_reduction,
        ),
        # The acceptance point of the online partition service: the full
        # zipfian(1.1) trace of ISSUE 4 (N=2^20, K=256, 512 queries).
        # The envelope pins the engine's total I/O to ~3x the lazy-trace
        # cost model — two orders of magnitude below the per-query
        # offline multi_select baseline at the same point.
        Solver(
            name="service-online",
            title="lazy online partition service (zipfian trace)",
            defaults=dict(n=2**20, k=256, a=0, part_size=0, queries=512,
                          memory=4096, block=64, seed=0),
            formula=lambda p: online_trace_io(
                p["n"], p["k"], p["queries"], p["memory"], p["block"]
            ),
            formula_name="online_trace_io",
            run=_run_service_online,
        ),
        # The sharded coordinator (ISSUE 9): split across W workers by
        # sampled splitters, answer the zipfian trace through the
        # router.  The envelope prices the *coordinator's* counters —
        # sampling + distribution scans, the charged sends of every
        # record, and the per-flush request/reply communication; the
        # workers' engine I/O lives on their own machines (checked by
        # the conservation tests, not this gate).
        Solver(
            name="service-sharded",
            title="sharded partition service, coordinator + communication",
            defaults=dict(n=2**17, k=128, a=0, part_size=0, queries=256,
                          shards=4, memory=4096, block=64, seed=0),
            formula=lambda p: sharded_service_io(
                p["n"], p["k"], p["queries"], p["shards"],
                p["memory"], p["block"],
            ),
            formula_name="sharded_service_io",
            run=_run_service_sharded,
        ),
        Solver(
            name="service-index",
            title="eager partition index (build + queries + updates)",
            defaults=dict(n=65_536, k=64, a=0, part_size=0, queries=64,
                          memory=4096, block=64, seed=0),
            formula=lambda p: service_index_io(
                p["n"], p["k"], p["queries"], p["memory"], p["block"]
            ),
            formula_name="service_index_io",
            run=_run_service_index,
        ),
        # Crash recovery of the durable service (ISSUE 6): build, apply
        # an interleaved update plan, crash, then measure recover() plus
        # a verification trace against the recovery cost model.
        Solver(
            name="service-recovery",
            title="durable service crash recovery (WAL replay + queries)",
            defaults=dict(n=32_768, k=32, a=0, part_size=0, queries=128,
                          updates=512, memory=4096, block=64, seed=0),
            formula=lambda p: service_recovery_io(
                p["n"], p["k"], p["updates"], p["queries"],
                p["memory"], p["block"],
            ),
            formula_name="service_recovery_io",
            run=_run_service_recovery,
        ),
    ]
}


def build_instance(name: str, overrides: dict | None = None):
    """Build ``(solver, machine, file, params)`` for a registry entry.

    ``overrides`` replaces individual default parameters (CLI flags).
    The input is staged uncounted, and counters are reset, so the
    machine's counters afterwards measure exactly the solver's work.
    """
    from ..em.machine import Machine
    from ..workloads.generators import load_input, random_permutation

    solver = SOLVERS[name]
    params = dict(solver.defaults)
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise KeyError(f"unknown solver parameters: {sorted(unknown)}")
        params.update({k: v for k, v in overrides.items() if v is not None})
    machine = Machine(memory=params["memory"], block=params["block"])
    records = random_permutation(params["n"], seed=params["seed"])
    file = load_input(machine, records)
    machine.reset_counters()
    return solver, machine, file, params


def run_solver(name: str, overrides: dict | None = None):
    """Run a registry entry at a parameter point; returns a result dict.

    Keys: ``outcome`` (display string), ``io``/``reads``/``writes``/
    ``comparisons`` (measured), ``bound`` (the Θ-shape at this point),
    ``ratio`` (measured/bound) and ``params``.
    """
    solver, machine, file, params = build_instance(name, overrides)
    try:
        outcome = solver.run(machine, file, params)
    finally:
        file.free()
    bound = solver.formula(params)
    io = machine.io.total
    return {
        "solver": name,
        "outcome": outcome,
        "io": io,
        "reads": machine.io.reads,
        "writes": machine.io.writes,
        "comparisons": machine.comparisons,
        "bound": bound,
        "ratio": io / bound if bound else float("inf"),
        "params": params,
    }
