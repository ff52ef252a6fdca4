"""Deterministic sampling and approximate quantile pivots.

The distribution-based algorithms (external distribution of a file into
``f`` buckets, Aggarwal–Vitter-style multi-partition, the memory-splitters
routine) all need *approximate quantile pivots*: ``f-1`` elements whose
ranks are within ``O(n/f)`` of the exact ``i·n/f`` quantiles, computed in
``O(n/B)`` I/Os.

We use the classic deterministic chunk-sampling scheme:

1. scan the file in memory-sized chunks, sort each chunk in memory, and
   keep every ``q``-th element (``q = chunk//per_chunk``) — the kept
   element of local rank ``j·q`` represents the ``q`` elements below it, so
   reconstructing ranks from the union of chunk samples incurs additive
   error at most ``q`` per chunk, i.e. ``n/per_chunk`` overall;
2. if the union of samples does not fit in memory, it is staged on disk and
   the procedure recurses on the (geometrically smaller) sample file.

With ``per_chunk = OVERSAMPLE * f`` the total rank error of the returned
pivots is ``O(n/f)`` (a geometric series over the recursion levels), which
is exactly what the distribution step needs: every bucket then has size at
most ``c·n/f`` for a small constant ``c``.  The error bound is exported as
:func:`pivot_rank_error_bound` and property-tested.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_sort
from ..em.file import EMFile, read_runs
from ..em.streams import BlockWriter, scan_chunks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = [
    "OVERSAMPLE",
    "chunk_samples_to_disk",
    "pick_pivots_from_sorted",
    "approx_quantile_pivots",
    "pivot_rank_error_bound",
    "max_distribution_fanout",
]

#: Samples kept per chunk, as a multiple of the requested pivot count.
#: Larger values tighten the rank-error bound at the cost of a bigger
#: sample file (still a lower-order term).
OVERSAMPLE = 4


def max_distribution_fanout(machine: "Machine") -> int:
    """Largest bucket count ``f`` usable for one distribution pass.

    A distribution pass holds ``f`` bucket buffers of one block each
    plus a scan chunk of at least one block, and pivot finding needs
    chunks to shrink geometrically
    (``OVERSAMPLE*f <= chunk/2``), so we take the minimum of both
    constraints.  Always at least 2.
    """
    by_buffers = machine.M // (2 * machine.B) - 2
    by_sampling = machine.M // (4 * OVERSAMPLE)
    return max(2, min(by_buffers, by_sampling))


def _memory_load_limit(machine: "Machine") -> int:
    """Records an in-memory base case may load (leave room for 2 buffers)."""
    return machine.load_limit


def chunk_samples_to_disk(
    machine: "Machine", file: EMFile, per_chunk: int
) -> tuple[EMFile, int]:
    """One sampling pass: sorted every-``q``-th samples of each chunk.

    Returns ``(sample_file, q)`` where ``q`` is the uniform sampling
    spacing (each sample stands for exactly ``q`` input records; the
    per-chunk rank uncertainty).  Costs one scan of ``file`` plus writing
    the (much smaller) sample file.
    """
    if per_chunk < 1:
        raise ValueError("per_chunk must be >= 1")
    chunk_records = _memory_load_limit(machine)
    # One spacing for every chunk (derived from the full chunk size, not
    # each chunk's length): all samples then carry the same weight q, so
    # sample-space quantiles map linearly to original ranks.  A shorter
    # trailing chunk simply contributes fewer samples.
    q = max(1, min(chunk_records, len(file)) // per_chunk)
    with BlockWriter(machine, "samples") as writer:
        with scan_chunks(file, chunk_records, "sample-chunk") as chunks:
            for chunk in chunks:
                cmp_sort(machine, len(chunk))
                chunk = machine.kernel.sort_by_composite(chunk)
                # Local ranks q, 2q, ... (0-based indices q-1, 2q-1, ...).
                idx = np.arange(q - 1, len(chunk), q)
                writer.write(chunk[idx])
        sample_file = writer.close()
    return sample_file, q


def pick_pivots_from_sorted(sorted_records: np.ndarray, n_pivots: int) -> np.ndarray:
    """Pick ``n_pivots`` evenly spaced elements from a sorted array.

    Returns the elements of (1-based) rank ``round(i*n/(n_pivots+1))``;
    duplicates of *positions* are collapsed, so fewer than ``n_pivots``
    may be returned when the array is short.
    """
    n = len(sorted_records)
    if n == 0 or n_pivots <= 0:
        return sorted_records[:0]
    positions = np.round(np.arange(1, n_pivots + 1) * n / (n_pivots + 1)).astype(int)
    positions = np.clip(positions, 1, n) - 1
    positions = np.unique(positions)
    return sorted_records[positions]


def approx_quantile_pivots(
    machine: "Machine", file: EMFile, n_pivots: int, oversample: int = OVERSAMPLE
) -> np.ndarray:
    """Find ``<= n_pivots`` approximate quantile pivots of ``file``.

    I/O cost ``O(n/B)`` (a geometric series of sampling passes); the
    returned pivots are elements of the file, sorted, with rank error
    bounded by :func:`pivot_rank_error_bound`.  A larger ``oversample``
    tightens the error at the cost of slower sample-file shrinkage
    (still geometric as long as ``oversample·n_pivots ≤ chunk/2``).
    """
    n = len(file)
    limit = _memory_load_limit(machine)
    if n <= limit:
        from .inmemory import select_at_ranks

        with machine.memory.lease(n, "pivot-base"):
            positions = np.round(
                np.arange(1, n_pivots + 1) * n / (n_pivots + 1)
            ).astype(np.int64)
            positions = np.unique(np.clip(positions, 1, n))
            pivots = select_at_ranks(
                machine, read_runs([file]), positions
            )
            cmp_sort(machine, len(pivots))
            return machine.kernel.sort_by_composite(pivots)
    per_chunk = oversample * n_pivots
    # Geometric shrinkage guard: the sample file must be at most half the
    # input, otherwise the recursion would not terminate in O(n/B).
    per_chunk = min(per_chunk, max(1, limit // 2))
    sample_file, _ = chunk_samples_to_disk(machine, file, per_chunk)
    try:
        return approx_quantile_pivots(machine, sample_file, n_pivots, oversample)
    finally:
        sample_file.free()


def pivot_rank_error_bound(
    n: int, n_pivots: int, machine: "Machine", oversample: int = OVERSAMPLE
) -> int:
    """Additive rank-error bound for :func:`approx_quantile_pivots`.

    At each sampling level the union of chunk samples reconstructs ranks
    with additive error at most (number of chunks) * (spacing q) which is
    about ``n_level / per_chunk`` in that level's units; translated back to
    original ranks every level contributes roughly ``n / per_chunk``, so the
    total is ``O(L * n / per_chunk)`` for ``L = O(log(n/M))`` levels.  We
    simulate the recursion's sizes and return a safety-factor-2 bound,
    which the property tests check empirically.
    """
    limit = _memory_load_limit(machine)
    if n <= limit:
        return 0
    per_chunk = min(oversample * n_pivots, max(1, limit // 2))
    err = 0.0
    scale = 1.0  # product of spacings of the levels above the current one
    m = n
    while m > limit:
        chunks = -(-m // limit)
        q = max(1, limit // per_chunk)
        err += scale * (chunks + 1) * q
        scale *= q
        m = m // q + chunks  # samples kept this level (upper bound)
    return int(np.ceil(2 * err)) + 1
