"""Wall-clock benchmark of the kernel backends.

Times the five backend-differing primitives — arena gather, arena
scatter, concatenation, bucket grouping, and composite sort — on a
scaled-up hot-path instance (a multi-thousand-block disk image and a
multi-thousand-bucket distribution pass, the shapes the experiment
suite actually produces), and cross-checks byte identity of every
output against the reference backend while doing so.  Two untimed
outputs join the identity check: a sort whose composites tie, and a
grouping into the 30 buckets production distributes to.

``sort`` times ``sort_by_composite``: the reference runs a stable
argsort and takes the permutation field by field; the production
backend runs the default argsort plus a tie check and takes raw.
``partition_at`` differs from it only in the permutation it takes
(``np.argpartition``), so it is not timed separately.  ``bucket_of`` /
``rank_order`` are *not* timed: they are canonical implementations
shared via
:class:`~repro.em.kernels.base.KernelBackend`, identical by
construction, so their ratio is 1.0 by definition.

Used by ``benchmarks/test_kernel_backend.py``, which records the result
in ``benchmarks/out/KERNEL_BACKEND.txt``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..disk import Disk
from ..records import make_records
from .numpy_v1 import NumpyV1Kernel
from .vectorized_v2 import VectorizedV2Kernel

__all__ = ["CI_INSTANCE", "KernelBenchResult", "bench_kernels", "render_bench"]

#: Primitive names in report order.
OPS = ("gather", "scatter", "concat", "group", "sort")

#: The smaller instance CI runs, the default size of
#: ``benchmarks/test_kernel_backend.py``; the full size
#: (``REPRO_BENCH_FULL=1``) is :func:`bench_kernels`' defaults.
CI_INSTANCE = dict(n_blocks=4096, n_buckets=2000, reps=2)

#: Copies of each record in the tied sort's input (they differ in
#: ``grp`` only, as in multi-selection's intermixed instance).
TIE_COPIES = 3

#: Bucket count of the untimed grouping: ``max_distribution_fanout`` at
#: M=4096, B=64.
PRODUCTION_BUCKETS = 30


@dataclass
class KernelBenchResult:
    """Per-backend wall-clock seconds for each primitive, plus shape."""

    n_blocks: int
    block: int
    n_buckets: int
    reps: int
    #: kernel name -> {op name -> seconds}
    timings: dict[str, dict[str, float]] = field(default_factory=dict)
    identical: bool = True

    def total(self, kernel: str) -> float:
        return sum(self.timings[kernel].values())

    def speedup(self, kernel: str, baseline: str = "numpy_v1") -> float:
        """Wall-clock ratio baseline/kernel over the whole suite."""
        return self.total(baseline) / self.total(kernel)


def bench_kernels(
    n_blocks: int = 8192,
    block: int = 64,
    n_buckets: int = 2000,
    reps: int = 3,
) -> KernelBenchResult:
    """Time the reference and the production backend on the primitive
    suite.

    The instance: ``n_blocks`` full blocks staged contiguously on a
    disk (one arena, the layout ``write_many`` produces), a same-sized
    record payload, a ``n_buckets``-way bucket assignment, a 500-part
    concatenation, and a shuffled copy of the payload to sort.  Each
    primitive runs ``reps`` times; the recorded figure is the total.
    The untimed identity checks run once per backend.
    """
    n = n_blocks * block

    disk = Disk(block)
    ids = disk.allocate(n_blocks)
    payload = make_records(np.arange(n))
    with disk.uncounted():
        disk.write_many(ids, payload)
    rng = np.random.default_rng(0)
    bucket_idx = rng.integers(0, n_buckets, size=n)
    parts = np.array_split(payload, 500)
    shuffled = payload[rng.permutation(n)]
    tied = np.tile(payload[: n // TIE_COPIES], TIE_COPIES)
    tied["grp"] = np.repeat(np.arange(TIE_COPIES), n // TIE_COPIES)
    tied = tied[rng.permutation(len(tied))]
    few_idx = rng.integers(0, PRODUCTION_BUCKETS, size=n)
    untimed = {
        "tied sort": lambda kern: kern.sort_by_composite(tied),
        "group/30": lambda kern: _group_digest(kern, payload, few_idx),
    }

    result = KernelBenchResult(
        n_blocks=n_blocks, block=block, n_buckets=n_buckets, reps=reps
    )
    reference: dict[str, bytes] = {}
    for kern in (NumpyV1Kernel(), VectorizedV2Kernel()):
        tasks = {
            "gather": lambda: kern.gather_blocks(disk._blocks, ids),
            "scatter": lambda: _scatter_roundtrip(
                kern, disk, ids, payload, block
            ),
            "concat": lambda: kern.concat(parts),
            "group": lambda: _group_digest(kern, payload, bucket_idx),
            "sort": lambda: kern.sort_by_composite(shuffled),
        }
        timings: dict[str, float] = {}
        outputs = {}
        for op in OPS:
            t0 = time.perf_counter()
            for _ in range(reps):
                outputs[op] = tasks[op]()
            timings[op] = time.perf_counter() - t0
        for check, run in untimed.items():
            outputs[check] = run(kern)
        for name, out in outputs.items():
            digest = _digest(out)
            if reference.setdefault(name, digest) != digest:
                result.identical = False
        result.timings[kern.name] = timings
    return result


def _scatter_roundtrip(kern, disk, ids, payload, block):
    kern.scatter_blocks(disk._blocks, ids, payload, block)
    return disk.peek(ids[0])


def _group_digest(kern, payload, bucket_idx):
    return list(kern.group_by_bucket(payload, bucket_idx))


def _digest(out) -> bytes:
    if isinstance(out, list):
        return b"".join(
            int(b).to_bytes(8, "little") + r.tobytes() for b, r in out
        )
    return np.asarray(out).tobytes()


def render_bench(result: KernelBenchResult) -> str:
    """Human-readable report (the KERNEL_BACKEND.txt payload)."""
    lines = [
        "kernel backend benchmark",
        f"  instance: {result.n_blocks} blocks x B={result.block} "
        f"({result.n_blocks * result.block:,} records), "
        f"{result.n_buckets} buckets, {result.reps} reps/op",
        "",
        f"  {'kernel':<16}" + "".join(f"{op:>10}" for op in OPS)
        + f"{'total':>10}{'speedup':>10}",
    ]
    for name, timings in result.timings.items():
        total = result.total(name)
        speed = result.speedup(name)
        lines.append(
            f"  {name:<16}"
            + "".join(f"{timings[op]:>9.3f}s" for op in OPS)
            + f"{total:>9.3f}s{speed:>9.2f}x"
        )
    lines += [
        "",
        f"  outputs byte-identical across backends: "
        f"{'yes' if result.identical else 'NO'}",
    ]
    return "\n".join(lines)
