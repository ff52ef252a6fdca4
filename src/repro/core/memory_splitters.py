"""Linear-I/O Θ(M)-splitters — the Hu et al. [6] building block.

The paper's multi-selection base case (§4.2) invokes, as a black box, the
result of Hu, Sheng, Tao, Yang and Zhou (SODA 2013): for ``K = M``,
``a = c1·N/M`` and ``b = c2·N/M`` the approximate K-splitters problem can
be solved in ``O(N/B)`` I/Os.  That paper's algorithm is not restated in
this one, so we substitute a routine with exactly the interface the base
case relies on:

* ``O(N/B)`` I/Os (tested),
* produces ``P - 1`` splitters for ``P = Θ(M)`` buckets,
* every induced partition has size between ``c1·N/P`` and ``c2·N/P``
  for fixed constants (we target, and test, ``c1 = 1/8`` and ``c2 = 4``).

Method — two-level deterministic sample-distribute-sample:

1. find ``f1 - 1 ≈ √P`` approximate quantile pivots
   (:func:`~repro.alg.sampling.approx_quantile_pivots`, one ``O(N/B)``
   sampling cascade) and distribute the file into ``f1`` buckets
   (one pass);
2. inside each bucket (size ``≈ N/f1``), find a proportional number of
   local approximate quantile pivots — the bucket is smaller by a ``√P``
   factor, so its sampling error is ``O(N/P)``, fine enough for the final
   splitters;
3. the union of level-1 pivots and all level-2 pivots is the splitter set.

Both levels cost ``O(N/B)`` in total.  This needs ``√P`` to be a legal
distribution fanout, i.e. the usual tall-cache shape ``M = Ω(B²)``; when
the machine is flatter we lower ``P`` to ``fanout²`` (documented in
DESIGN.md), which only changes the constants of the base case that
consumes us.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_sort
from ..em.file import EMFile, read_runs
from ..em.records import empty_records
from ..alg.distribute import distribute_by_pivots
from ..alg.sampling import (
    approx_quantile_pivots,
    max_distribution_fanout,
    pick_pivots_from_sorted,
    pivot_rank_error_bound,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = [
    "memory_splitters",
    "default_bucket_count",
    "SIZE_LOWER_FACTOR",
    "SIZE_UPPER_FACTOR",
]

#: Guaranteed constants: every induced partition has size within
#: ``[SIZE_LOWER_FACTOR * N/P, SIZE_UPPER_FACTOR * N/P]`` (empirically
#: validated by the test suite across workloads and machine shapes).
SIZE_LOWER_FACTOR = 1 / 8
SIZE_UPPER_FACTOR = 4.0


def default_bucket_count(machine: "Machine") -> int:
    """The Θ(M) bucket count used when the caller does not specify one.

    ``M/8`` keeps the splitter set comfortably memory-resident next to the
    scan buffers of whoever consumes it; clamped to ``fanout²`` on flat
    (non-tall-cache) machines.
    """
    f = max_distribution_fanout(machine)
    return max(2, min(machine.M // 8, f * f))


def memory_splitters(
    machine: "Machine", file: EMFile, n_buckets: int | None = None
) -> np.ndarray:
    """Return sorted splitter records dividing ``file`` into ``<= n_buckets``
    buckets of size ``Θ(N/n_buckets)`` each, in ``O(N/B)`` I/Os.

    The returned array has at most ``n_buckets - 1`` records (fewer when
    the file is small); all are elements of the file.
    """
    n = len(file)
    if n_buckets is None:
        n_buckets = default_bucket_count(machine)
    n_buckets = max(1, min(n_buckets, n))
    if n_buckets == 1:
        return empty_records(0)

    limit = machine.load_limit
    if n <= limit:
        # Exact in-memory base case: select the quantile positions
        # directly (Θ(n·lg P) comparisons, no full sort).
        from ..alg.inmemory import select_at_ranks

        with machine.memory.lease(n, "ms-base"):
            positions = np.unique(
                np.clip(
                    np.round(
                        np.arange(1, n_buckets) * n / n_buckets
                    ).astype(np.int64),
                    1,
                    n,
                )
            )
            pivots = select_at_ranks(
                machine, read_runs([file]), positions
            )
            cmp_sort(machine, len(pivots))
            return machine.kernel.sort_by_composite(pivots)

    # Single-level fast path: when a high-oversample sampling cascade can
    # already deliver all P-1 pivots with rank error well below N/P, skip
    # the distribute + per-bucket refinement entirely (~1.4 scans instead
    # of ~4).  This typically fires for P up to a few hundred on
    # tall-cache machines and is exactly why small-K multi-selection ends
    # up close to one scan.
    # Error budget 0.4·N/P keeps every partition within [0.2, 1.8]·N/P —
    # comfortably inside the advertised [SIZE_LOWER_FACTOR,
    # SIZE_UPPER_FACTOR] window.
    oversample = 16
    err = pivot_rank_error_bound(n, n_buckets - 1, machine, oversample)
    if err <= 2 * n // (5 * n_buckets):
        with machine.phase("memory-splitters"):
            return approx_quantile_pivots(machine, file, n_buckets - 1, oversample)

    f1 = int(np.ceil(np.sqrt(n_buckets)))
    f1 = max(2, min(f1, max_distribution_fanout(machine)))

    with machine.phase("memory-splitters"):
        level1 = approx_quantile_pivots(machine, file, f1 - 1)
        buckets = distribute_by_pivots(machine, file, level1, "ms")
        all_pivots: list[np.ndarray] = [level1]
        for bucket in buckets:
            size = len(bucket)
            # Proportional share of the global splitter budget.
            local = int(round(n_buckets * size / n)) - 1
            if size > 0 and local >= 1:
                all_pivots.append(approx_quantile_pivots(machine, bucket, local))
            bucket.free()

    splitters = machine.kernel.concat(all_pivots)
    with machine.memory.lease(len(splitters), "ms-result"):
        cmp_sort(machine, len(splitters))
        splitters = machine.kernel.sort_by_composite(splitters)
    return splitters
