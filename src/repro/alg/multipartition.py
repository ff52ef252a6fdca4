"""Exact multi-partition in ``O((N/B)·lg_{M/B} K)`` I/Os (Aggarwal–Vitter).

Given prescribed sizes ``σ_1, ..., σ_K`` summing to ``N``, produce ordered
partitions ``P_1, ..., P_K`` with ``|P_i| = σ_i`` and every element of
``P_i`` smaller than every element of ``P_j`` for ``i < j``.

Structure (distribution sort specialized to prescribed ranks):

* Always distribute with full fanout ``f = Θ(M/B)`` using approximate
  quantile pivots (one ``O(n/B)`` sampling pass + one distribution pass).
* Recurse **only** into buckets that contain an *interior* target rank —
  buckets without one already lie entirely inside a single output
  partition and are emitted as finished segments.
* A bucket that fits in memory is cut exactly at its local ranks in one
  load.

Cost: at level ℓ the active buckets number at most ``min(K-1, f^ℓ)`` and
shrink by ``Θ(f)`` per level, so total work is
``O((N/B)·log_f K + N/B) = O((N/B)·lg_{M/B} K)`` — for small ``K`` the
recursion narrows to the rank-containing buckets and the cost telescopes
to ``O(N/B)``, matching the paper's Table 1 usage.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.streams import copy_file
from .distribute import distribute_by_pivots
from .inmemory import partition_at_ranks
from .partitioned import PartitionedFile
from .sampling import approx_quantile_pivots, max_distribution_fanout
from .selection import select_rank

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["multi_partition", "multi_partition_at_ranks"]


def multi_partition(machine: "Machine", file: EMFile, sizes: list[int]) -> PartitionedFile:
    """Partition ``file`` into partitions of exactly the given ``sizes``.

    ``sizes`` may contain zeros.  The input file is left intact.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise SpecError("partition sizes must be non-negative")
    if sum(sizes) != len(file):
        raise SpecError(
            f"sizes sum to {sum(sizes)} but the file holds {len(file)} records"
        )
    boundaries = np.cumsum(sizes)[:-1] if len(sizes) > 1 else np.empty(0, dtype=int)
    with machine.phase("multipartition"):
        segments = _solve(machine, file, _interior(boundaries, len(file)), owned=False)
        return _assemble(machine, segments, sizes)


def multi_partition_at_ranks(
    machine: "Machine", file: EMFile, boundary_ranks: list[int]
) -> PartitionedFile:
    """Partition ``file`` at cumulative boundary ranks.

    ``boundary_ranks`` are the prefix sizes ``σ_1, σ_1+σ_2, ...`` —
    i.e. partition ``i`` ends after rank ``boundary_ranks[i]``.  Must be
    non-decreasing and within ``[0, N]``; a final partition covering the
    remainder is always added.
    """
    n = len(file)
    ranks = [int(r) for r in boundary_ranks]
    if any(r < 0 or r > n for r in ranks) or ranks != sorted(ranks):
        raise SpecError("boundary ranks must be non-decreasing within [0, N]")
    sizes = []
    prev = 0
    for r in ranks:
        sizes.append(r - prev)
        prev = r
    sizes.append(n - prev)
    return multi_partition(machine, file, sizes)


def _interior(boundaries: np.ndarray, n: int) -> np.ndarray:
    """Keep distinct boundary ranks strictly inside (0, n)."""
    b = np.unique(np.asarray(boundaries, dtype=np.int64))
    return b[(b > 0) & (b < n)]


def _solve(
    machine: "Machine", file: EMFile, ranks: np.ndarray, owned: bool
) -> list[EMFile]:
    """Return ordered segments such that every rank in ``ranks`` falls on a
    boundary between consecutive segments.  Frees ``file`` iff ``owned``,
    also on failure; a failure frees every file the call created."""
    n = len(file)
    if len(ranks) == 0:
        return [file if owned else copy_file(machine, file, "mp-copy")]

    segments: list[EMFile] = []
    buckets: list[EMFile] = []
    try:
        if n <= machine.load_limit:
            with machine.phase("base"):
                with machine.memory.lease(n, "mp-base"):
                    # The base case only needs the rank *cuts*, not a full
                    # sort: one multi-pivot partition pass, Θ(n·lg k)
                    # comparisons [7].
                    data = partition_at_ranks(
                        machine, read_runs([file]), ranks
                    )
                if owned:
                    file.free()
                prev = 0
                for r in list(ranks) + [n]:
                    segments.append(
                        EMFile.from_records(machine, data[prev:r], counted=True)
                    )
                    prev = int(r)
            return segments

        f = max_distribution_fanout(machine)
        with machine.phase("sample"):
            pivots = approx_quantile_pivots(machine, file, f - 1)
            if len(pivots) == 0:
                # Degenerate (cannot happen for n > limit, but stay safe):
                # exact median split via selection guarantees progress.
                pivots = np.array([select_rank(machine, file, (n + 1) // 2)])
        with machine.phase("distribute"):
            buckets = distribute_by_pivots(machine, file, pivots, "mp")
            if max(len(b) for b in buckets) >= n:
                # Pivots failed to split (all-equal composites cannot occur,
                # so this is purely defensive): force an exact median split.
                for b in buckets:
                    b.free()
                mid = select_rank(machine, file, (n + 1) // 2)
                buckets = distribute_by_pivots(
                    machine, file, np.array([mid]), "mp-med"
                )
        if owned:
            file.free()

        offset = 0
        with machine.phase("recurse"):
            for bucket in buckets:
                size = len(bucket)
                if size == 0:
                    bucket.free()
                    continue
                local = ranks[(ranks > offset) & (ranks < offset + size)] - offset
                segments.extend(_solve(machine, bucket, local, owned=True))
                offset += size
        return segments
    except BaseException:
        # EMFile.free is idempotent: files already freed stay freed.
        for made in segments + buckets:
            made.free()
        if owned:
            file.free()
        raise


def _assemble(
    machine: "Machine", segments: list[EMFile], sizes: list[int]
) -> PartitionedFile:
    """Assign ordered segments to partitions with the prescribed sizes."""
    segment_partition: list[int] = []
    part = 0
    remaining = sizes[part] if sizes else 0
    for seg in segments:
        while remaining == 0 and part < len(sizes) - 1:
            part += 1
            remaining = sizes[part]
        if len(seg) > remaining:
            raise AssertionError(
                "segment straddles a partition boundary — recursion failed "
                f"to cut at a target rank (segment={len(seg)}, remaining={remaining})"
            )
        segment_partition.append(part)
        remaining -= len(seg)
    return PartitionedFile(machine, segments, segment_partition, sizes)
