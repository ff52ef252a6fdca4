"""§4.2 — multi-selection in ``O((N/B)·lg_{M/B}(K/B))`` I/Os (Theorem 4).

Report the elements of ``K`` prescribed ranks.  Two regimes:

* **Base case** ``K ≤ m = cM``:

  1. run :func:`~repro.core.memory_splitters.memory_splitters` — the
     Hu et al. [6] building block — obtaining ``P = Θ(M)`` splitters whose
     induced partitions all have size ``Θ(N/P)``, in ``O(N/B)`` I/Os;
  2. one scan computes all partition sizes (splitters stay resident);
  3. each requested rank ``r_i`` falls in a known partition ``j(i)``, so
     the answer is the element of *local* rank ``t_i`` inside ``P_{j(i)}``
     — build the K-intermixed-selection instance
     ``D_i = {(e, i) : e ∈ P_{j(i)}}`` in one more scan
     (``|D| = Σ_i |P_{j(i)}| ≤ K · O(N/M) = O(N)``), and
  4. solve it with §4.1's intermixed selection in ``O(|D|/B) = O(N/B)``.

  Total: ``O(N/B)`` — *linear*, which is what beats the pre-paper
  multi-partition route when ``K`` is small.

* **General case** ``K > m``: multi-partition ``S`` at the rank *values*
  ``r_m, r_{2m}, ...`` into ``g = ⌈K/m⌉`` partitions
  (``O((N/B)·lg_{M/B} g)`` I/Os), then run the base case inside every
  partition (``O(N/B)`` altogether).

The base case's two scans and the copy that stitches a partition's
segments into one file read memory-sized ``scan_chunks`` chunks, one
vectorized step per chunk; each block still costs one read and its own
``bucket_of`` search charge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_search
from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.records import RECORD_DTYPE, composite
from ..em.streams import BlockWriter, scan_chunks
from ..alg.multipartition import multi_partition_at_ranks
from .intermixed import intermixed_select, max_groups
from .memory_splitters import memory_splitters

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["multi_select", "multi_select_streamed"]


def multi_select(machine: "Machine", file: EMFile, ranks) -> np.ndarray:
    """Return the records of the given 1-based ``ranks`` (in input order).

    ``ranks`` may be unsorted and may contain duplicates.  The input file
    is left intact.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n = len(file)
    if ranks.ndim != 1 or len(ranks) == 0:
        raise SpecError("ranks must be a non-empty 1-D array")
    if np.any(ranks < 1) or np.any(ranks > n):
        raise SpecError(f"ranks must lie in [1, {n}]")

    unique_sorted, inverse = np.unique(ranks, return_inverse=True)
    answers_sorted = _solve_sorted(machine, file, unique_sorted)
    return answers_sorted[inverse]


def _solve_sorted(machine: "Machine", file: EMFile, ranks: np.ndarray) -> np.ndarray:
    """Solve for strictly increasing ranks; answers aligned with ``ranks``."""
    n = len(file)
    k = len(ranks)
    limit = machine.load_limit
    if n <= limit:
        from ..alg.inmemory import select_at_ranks

        with machine.memory.lease(n, "msel-tiny"):
            return select_at_ranks(machine, read_runs([file]), ranks)

    m = max_groups(machine)
    if k <= m:
        return _base_case(machine, file, ranks)

    # General case: cut S at the rank values r_m, r_{2m}, ... and recurse
    # into each partition with its ≤ m local ranks.
    boundary_ranks = [int(ranks[j]) for j in range(m - 1, k - 1, m)]
    partitioned = multi_partition_at_ranks(machine, file, boundary_ranks)
    answers = np.empty(k, dtype=RECORD_DTYPE)
    try:
        offsets = np.concatenate(([0], np.cumsum(partitioned.partition_sizes)))
        for j in range(partitioned.num_partitions):
            lo, hi = offsets[j], offsets[j + 1]
            in_part = (ranks > lo) & (ranks <= hi)
            if not np.any(in_part):
                continue
            local_ranks = ranks[in_part] - lo
            part_file = _stitch(machine, partitioned.segments_of(j), "msel-part")
            try:
                answers[in_part] = _solve_sorted(machine, part_file, local_ranks)
            finally:
                part_file.free()
    finally:
        partitioned.free()
    return answers


def _stitch(machine: "Machine", segments: list[EMFile], label: str) -> EMFile:
    """Copy a partition's segments, in order, into one contiguous file.

    Each segment is read in memory-sized chunks (reader ``label-in``)
    and the records go out through one ``label`` writer: one read and
    one write per block.
    """
    with BlockWriter(machine, label) as writer:
        for seg in segments:
            with scan_chunks(seg, machine.load_limit, f"{label}-in") as chunks:
                for chunk in chunks:
                    writer.write(chunk)
        return writer.close()


def _block_lengths(n_records: int, block: int) -> list[int]:
    """The block lengths of an ``n_records``-record chunk of a file: full
    blocks, then the file's partial last block if the chunk ends there.

    A comparison charge rounds up per call, so a chunk's search charge
    is made block by block, as the model counts a block-at-a-time scan.
    """
    full, tail = divmod(n_records, block)
    return [block] * full + ([tail] if tail else [])


def _base_case(machine: "Machine", file: EMFile, ranks: np.ndarray) -> np.ndarray:
    """K ≤ m: memory-splitters + one intermixed selection; O(N/B) I/Os."""
    k = len(ranks)
    with machine.phase("multiselect-base"):
        # Splitter granularity: enough buckets that the intermixed
        # instance |D| ≈ K·N/P stays a small fraction of N, but no more
        # resident state than M/8.
        p = min(max(64, 8 * k), machine.M // 8)
        splitters = memory_splitters(machine, file, n_buckets=p)
        n_buckets = len(splitters) + 1
        resident = machine.memory.lease(
            len(splitters) + n_buckets + 4 * k, "msel-resident"
        )
        try:
            splitter_comps = composite(splitters)

            # Scan 1: exact partition sizes.
            sizes = np.zeros(n_buckets, dtype=np.int64)
            with scan_chunks(file, machine.load_limit, "msel-sizes") as chunks:
                for chunk in chunks:
                    for length in _block_lengths(len(chunk), machine.B):
                        cmp_search(machine, length, n_buckets)
                    b = machine.kernel.bucket_of(chunk, splitter_comps)
                    sizes += np.bincount(b, minlength=n_buckets)
            prefix = np.cumsum(sizes)

            # Locate each rank: bucket j(i) and local rank t_i.
            j_of = np.searchsorted(prefix, ranks, side="left")
            below = np.where(j_of > 0, prefix[j_of - 1], 0)
            t = ranks - below

            # Bucket -> list of group ids (groups = sorted rank indices).
            order = np.argsort(j_of, kind="stable")
            groups_flat = order.astype(np.int64)
            ngroups = np.bincount(j_of, minlength=n_buckets)
            group_start = np.concatenate(([0], np.cumsum(ngroups)))

            # Scan 2: build the intermixed instance D.
            with BlockWriter(machine, "msel-D") as writer:
                with scan_chunks(file, machine.load_limit, "msel-build") as chunks:
                    for chunk in chunks:
                        for length in _block_lengths(len(chunk), machine.B):
                            cmp_search(machine, length, n_buckets)
                        b = machine.kernel.bucket_of(chunk, splitter_comps)
                        cnt = ngroups[b]
                        total = int(cnt.sum())
                        if total == 0:
                            continue
                        rep = np.repeat(np.arange(len(chunk)), cnt)
                        within = np.arange(total) - np.repeat(
                            np.cumsum(cnt) - cnt, cnt
                        )
                        out = chunk[rep]
                        out["grp"] = groups_flat[group_start[b][rep] + within]
                        writer.write(out)
                d_file = writer.close()
        finally:
            resident.release()

        try:
            answers = intermixed_select(machine, d_file, t)
        finally:
            d_file.free()
    return answers


# ----------------------------------------------------------------------
# Streaming rank list: K beyond memory
# ----------------------------------------------------------------------
def multi_select_streamed(
    machine: "Machine", file: EMFile, ranks_file: EMFile
) -> EMFile:
    """Multi-selection with the rank list itself on disk.

    :func:`multi_select` treats its rank array as memory-resident control
    state, capping ``K`` at ``O(M)``.  This variant takes the ranks as an
    :class:`EMFile` whose records' ``key`` field holds the (1-based)
    ranks, **strictly increasing**, and writes the answers to a new file
    in the same order — supporting ``K`` up to ``m·M/2 = Θ(M²)``.

    Structure mirrors §4.2's general case: the boundary ranks
    ``r_m, r_{2m}, ...`` are collected in one scan of the rank file
    (``g - 1 = ⌈K/m⌉ - 1 ≤ K/m`` values, leased), the data file is
    multi-partitioned at them, and each partition answers its ≤ m local
    ranks with the in-memory path.  Extra cost over :func:`multi_select`:
    one scan of the rank file plus one write of the answer file.
    """
    k = len(ranks_file)
    if k == 0:
        raise SpecError("ranks file must be non-empty")
    n = len(file)
    m = max_groups(machine)

    # Pass 1 over the ranks: validate monotonicity, collect boundaries.
    g = -(-k // m)
    if g - 1 > machine.M // 2:
        raise SpecError(
            f"K={k} needs {g - 1} resident boundary ranks, over M/2; "
            f"supported K is at most m*M/2 = {m * machine.M // 2}"
        )
    boundary_lease = machine.memory.lease(max(1, g - 1) + machine.B, "msf-bounds")
    try:
        boundaries: list[int] = []
        prev = 0
        index = 0
        for bi in range(ranks_file.num_blocks):
            block = ranks_file.read_block(bi)
            keys = block["key"]
            if len(keys) and (keys[0] <= prev or np.any(np.diff(keys) <= 0)):
                raise SpecError("ranks must be strictly increasing")
            if len(keys):
                prev = int(keys[-1])
                if prev > n or keys[0] < 1:
                    raise SpecError(f"ranks must lie in [1, {n}]")
            # Global indices m-1, 2m-1, ... are partition boundaries.
            local = np.arange(index, index + len(keys))
            hit = (local % m == m - 1) & (local < (g - 1) * m)
            boundaries.extend(int(v) for v in keys[hit])
            index += len(keys)
    finally:
        boundary_lease.release()

    with BlockWriter(machine, "msf-answers") as answers_writer:
        if not boundaries:
            _streamed_base(machine, file, ranks_file, 0, answers_writer)
            return answers_writer.close()

        partitioned = multi_partition_at_ranks(machine, file, boundaries)
        try:
            offsets = np.concatenate(
                ([0], np.cumsum(partitioned.partition_sizes))
            )
            for j in range(partitioned.num_partitions):
                # Rank indices [j*m, min((j+1)*m, K)) live in partition j.
                if j * m >= k:
                    break
                part_file = _stitch(machine, partitioned.segments_of(j), "msf-part")
                try:
                    _streamed_base(
                        machine,
                        part_file,
                        ranks_file,
                        j,
                        answers_writer,
                        first_index=j * m,
                        last_index=min((j + 1) * m, k),
                        offset=int(offsets[j]),
                    )
                finally:
                    part_file.free()
        finally:
            partitioned.free()
        return answers_writer.close()


def _streamed_base(
    machine: "Machine",
    part_file: EMFile,
    ranks_file: EMFile,
    j: int,
    answers_writer: BlockWriter,
    first_index: int = 0,
    last_index: int | None = None,
    offset: int = 0,
) -> None:
    """Answer rank indices [first_index, last_index) against one partition."""
    if last_index is None:
        last_index = len(ranks_file)
    count = last_index - first_index
    B = machine.B
    with machine.memory.lease(count, "msf-local-ranks"):
        # Read only the rank blocks covering the index slice.
        parts = []
        for bi in range(first_index // B, -(-last_index // B)):
            block = ranks_file.read_block(bi)
            lo = max(0, first_index - bi * B)
            hi = min(len(block), last_index - bi * B)
            parts.append(block["key"][lo:hi])
        local = np.concatenate(parts).astype(np.int64) - offset
        answers = _solve_sorted(machine, part_file, local)
    answers_writer.write(answers)
