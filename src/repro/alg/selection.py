"""Single-rank selection in ``O(N/B)`` I/Os (external BFPRT).

The external-memory version of the Blum–Floyd–Pratt–Rivest–Tarjan
median-of-medians algorithm [3]: one scan collects the medians of groups of
five into a file Σ, a recursive call finds the median-of-medians μ, one
more scan partitions around μ, and the recursion continues on the side
containing the target rank.  ``T(n) = T(n/5) + T(7n/10 + O(1)) + O(n/B)
= O(n/B)``.

This is the ``L = 1`` special case of §4.1's intermixed selection, kept
standalone both as a substrate (the two-sided splitters algorithm uses a
single selection to split off ``S_low``) and as an independent
cross-check of the general algorithm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_median5
from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.records import composite, composite_of
from ..em.streams import BlockWriter, scan_chunks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["select_rank", "select_rank_fast", "median_of_five_file"]


def _group_medians(machine: "Machine", chunk: np.ndarray) -> np.ndarray:
    """Medians of consecutive groups of 5 (lower median for the remainder)."""
    cmp_median5(machine, len(chunk))
    full = (len(chunk) // 5) * 5
    parts = []
    if full:
        groups = chunk[:full].reshape(-1, 5)
        order = np.argsort(composite(groups), axis=1)
        med = groups[np.arange(len(groups)), order[:, 2]]
        parts.append(med)
    rest = chunk[full:]
    if len(rest):
        rest = machine.kernel.sort_by_composite(rest)
        parts.append(rest[(len(rest) - 1) // 2 : (len(rest) - 1) // 2 + 1])
    if not parts:
        return chunk[:0]
    return np.concatenate(parts)


def median_of_five_file(machine: "Machine", file: EMFile) -> EMFile:
    """One pass: write the medians of groups of 5 to a new file (|Σ| ≈ n/5)."""
    chunk_records = machine.load_limit
    with BlockWriter(machine, "sigma") as writer:
        with scan_chunks(file, chunk_records, "mo5-chunk") as chunks:
            for chunk in chunks:
                writer.write(_group_medians(machine, chunk))
        return writer.close()


def select_rank(machine: "Machine", file: EMFile, rank: int) -> np.void:
    """Return the record of (1-based) ``rank`` in the composite order.

    ``O(n/B)`` I/Os; does not modify the input file.
    """
    n = len(file)
    if not 1 <= rank <= n:
        raise SpecError(f"rank {rank} out of range for n={n}")
    with machine.phase("select"):
        return _select(machine, file, rank, owned=False)


def _select(machine: "Machine", file: EMFile, rank: int, owned: bool) -> np.void:
    n = len(file)
    limit = machine.load_limit
    if n <= limit:
        from .inmemory import select_at_ranks

        with machine.memory.lease(n, "select-base"):
            result = select_at_ranks(
                machine, read_runs([file]), [rank]
            )[0]
        if owned:
            file.free()
        return result

    sigma = median_of_five_file(machine, file)
    mu = _select(machine, sigma, (len(sigma) + 1) // 2, owned=True)
    mu_comp = composite_of(int(mu["key"]), int(mu["uid"]))

    # Partition pass around mu; count theta = |{e <= mu}|.
    with (
        BlockWriter(machine, "select-low") as low_writer,
        BlockWriter(machine, "select-high") as high_writer,
    ):
        with scan_chunks(file, machine.load_limit, "select-scan") as chunks:
            for chunk in chunks:
                cmp_linear(machine, len(chunk))
                mask = composite(chunk) <= mu_comp
                low_writer.write(chunk[mask])
                high_writer.write(chunk[~mask])
        low = low_writer.close()
        high = high_writer.close()
    if owned:
        file.free()

    theta = len(low)
    if rank <= theta:
        high.free()
        return _select(machine, low, rank, owned=True)
    low.free()
    return _select(machine, high, rank - theta, owned=True)


# ----------------------------------------------------------------------
# Fast deterministic selection via bracket pivots
# ----------------------------------------------------------------------
def select_rank_fast(machine: "Machine", file: EMFile, rank: int) -> np.void:
    """Single-rank selection with a smaller constant than BFPRT.

    Still deterministic ``O(n/B)``: the sampling cascade of
    :func:`~repro.alg.sampling.approx_quantile_pivots` yields pivots with
    a *provable* rank-error bound, so two pivots whose estimated quantile
    positions straddle ``rank`` by more than that bound bracket the
    answer.  One scan then counts the records below the bracket and
    extracts the bracket zone (a small fraction of the file), and the
    recursion continues inside the zone.  Total ≈ 2.5 scans versus
    BFPRT's ≈ 8 (both linear).  Falls back to :func:`select_rank` if the
    bracket ever misses (the error bound is conservative, so this is a
    safety net, not an expected path).
    """
    n = len(file)
    if not 1 <= rank <= n:
        raise SpecError(f"rank {rank} out of range for n={n}")
    with machine.phase("select-fast"):
        return _select_fast(machine, file, rank, owned=False)


def _select_fast(machine: "Machine", file: EMFile, rank: int, owned: bool) -> np.void:
    from .sampling import approx_quantile_pivots, pivot_rank_error_bound

    n = len(file)
    limit = machine.load_limit
    if n <= limit:
        from .inmemory import select_at_ranks

        with machine.memory.lease(n, "fselect-base"):
            result = select_at_ranks(
                machine, read_runs([file]), [rank]
            )[0]
        if owned:
            file.free()
        return result

    n_piv = 64
    oversample = 16
    err = pivot_rank_error_bound(n, n_piv, machine, oversample)
    pivots = approx_quantile_pivots(machine, file, n_piv, oversample)
    p = len(pivots)
    est = ((np.arange(1, p + 1) * n) // (p + 1)).astype(np.int64)

    lo_candidates = np.flatnonzero(est + err < rank)
    hi_candidates = np.flatnonzero(est - err >= rank)
    lo_comp = (
        composite(pivots[lo_candidates[-1] : lo_candidates[-1] + 1])[0]
        if len(lo_candidates)
        else None
    )
    hi_comp = (
        composite(pivots[hi_candidates[0] : hi_candidates[0] + 1])[0]
        if len(hi_candidates)
        else None
    )

    # One scan: count records <= lo and extract the (lo, hi] zone.
    below = 0
    with BlockWriter(machine, "fselect-zone") as zone_writer:
        with scan_chunks(file, machine.load_limit, "fselect-scan") as chunks:
            for chunk in chunks:
                cmp_linear(machine, 2 * len(chunk))
                comps = composite(chunk)
                if lo_comp is not None:
                    le_lo = comps <= lo_comp
                    below += int(le_lo.sum())
                else:
                    le_lo = np.zeros(len(chunk), dtype=bool)
                in_zone = ~le_lo
                if hi_comp is not None:
                    in_zone &= comps <= hi_comp
                zone_writer.write(chunk[in_zone])
        zone = zone_writer.close()

    if not (below < rank <= below + len(zone)) or len(zone) >= n:
        # Bracket missed (error bound too optimistic) — fall back to BFPRT.
        zone.free()
        return _select(machine, file, rank, owned=owned)
    result = _select_fast(machine, zone, rank - below, owned=True)
    if owned:
        file.free()
    return result
