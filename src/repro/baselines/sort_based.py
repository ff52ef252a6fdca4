"""Sort-based baselines (§1.2: "all the above problems can be trivially
solved by sorting in ``O((N/B)·lg_{M/B}(N/B))`` I/Os").

These are the comparators every Table 1 experiment measures against: the
paper's algorithms must beat them exactly in the regimes the theory
predicts (small ``aK`` for right-grounded splitters, large ``b`` for
left-grounded problems, ...), and may tie elsewhere.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import empty_records
from ..em.streams import BlockWriter, scan_chunks
from ..alg.partitioned import PartitionedFile
from ..alg.sort import external_sort
from ..core.spec import SplitterResult, validate_params

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = [
    "sort_based_splitters",
    "sort_based_partition",
    "sort_based_multiselect",
]


def _read_ranks_from_sorted(
    machine: "Machine", sorted_file: EMFile, ranks: np.ndarray
) -> np.ndarray:
    """Fetch the records at the given 1-based ranks (sorted ascending) from
    a sorted file by reading only the blocks that contain them.

    Processes the rank list in memory-sized batches so ``K`` may exceed
    ``M`` (the ranks themselves are then streamed control state)."""
    if np.any(np.diff(ranks) < 0):
        raise SpecError("ranks must be sorted ascending")
    B = machine.B
    batch_size = max(1, (machine.M - B) // 2)
    out = []
    for start in range(0, len(ranks), batch_size):
        batch = ranks[start : start + batch_size]
        with machine.memory.lease(B + len(batch), "rank-read"):
            block_of = (batch - 1) // B
            for bid in np.unique(block_of):
                block = sorted_file.read_block(int(bid))
                local = batch[block_of == bid] - 1 - bid * B
                out.append(block[local])
    return np.concatenate(out)


def sort_based_splitters(
    machine: "Machine", file: EMFile, k: int, a: int, b: int
) -> SplitterResult:
    """Sort, then read off the ``1/K``-quantile as the splitters.

    The ranks ``⌊i·N/K⌋`` induce partitions of size ``⌊N/K⌋``/``⌈N/K⌉``,
    which lie in ``[a, b]`` for any valid instance.  Cost: one external
    sort plus ``≤ K`` block reads.
    """
    n = len(file)
    params = validate_params(n, k, a, b)
    with machine.phase("baseline-sort-splitters"):
        sorted_file = external_sort(machine, file)
        try:
            if k == 1:
                splitters = empty_records(0)
            else:
                ranks = (np.arange(1, k, dtype=np.int64) * n) // k
                splitters = _read_ranks_from_sorted(machine, sorted_file, ranks)
        finally:
            sorted_file.free()
    return SplitterResult(splitters, params, "baseline/sort")


def sort_based_partition(
    machine: "Machine", file: EMFile, k: int, a: int, b: int
) -> PartitionedFile:
    """Sort, then cut the sorted file into ``K`` near-equal partitions.

    Cost: one external sort plus one ``O(N/B)`` rewrite into segments.
    """
    n = len(file)
    validate_params(n, k, a, b)
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    with machine.phase("baseline-sort-partition"):
        sorted_file = external_sort(machine, file)
        try:
            segments: list[EMFile] = []
            with scan_chunks(sorted_file, machine.B, "cut-in") as blocks:
                blocks = iter(blocks)
                block, start = empty_records(0), 0
                for size in sizes:  # every size >= 1, as K <= N
                    with BlockWriter(machine, "cut-out") as writer:
                        remaining = size
                        while remaining:
                            if start == len(block):
                                block, start = next(blocks), 0
                            take = min(remaining, len(block) - start)
                            writer.write(block[start : start + take])
                            start += take
                            remaining -= take
                        segments.append(writer.close())
        finally:
            sorted_file.free()
    return PartitionedFile(machine, segments, list(range(k)), sizes)


def sort_based_multiselect(
    machine: "Machine", file: EMFile, ranks) -> np.ndarray:
    """Sort, then read the requested ranks off the sorted file."""
    ranks = np.asarray(ranks, dtype=np.int64)
    n = len(file)
    if np.any(ranks < 1) or np.any(ranks > n):
        raise SpecError(f"ranks must lie in [1, {n}]")
    with machine.phase("baseline-sort-multiselect"):
        sorted_file = external_sort(machine, file)
        try:
            unique_sorted, inverse = np.unique(ranks, return_inverse=True)
            answers = _read_ranks_from_sorted(machine, sorted_file, unique_sorted)
        finally:
            sorted_file.free()
    return answers[inverse]
