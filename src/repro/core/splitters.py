"""§5.1 — optimal algorithms for approximate K-splitters.

Three variants, matching the paper case for case:

* **Right-grounded** (``b = N``): take *any* ``aK`` elements ``S'`` of
  ``S`` (we read them off the front of the file), and return the
  ``1/K``-quantile of ``S'`` — the elements of ``S'``-rank ``a, 2a, ...``.
  Each induced partition of ``S`` then contains at least the ``a``
  elements of ``S'`` lying between consecutive splitters.
  Cost ``O((1 + aK/B)·lg_{M/B}(K/B))`` — *sublinear* when ``aK ≪ N``.

* **Left-grounded** (``a = 0``): with ``K' = ⌈N/b⌉``, multi-select the
  ranks ``b, 2b, ..., (K'-1)b``; every induced partition has exactly
  ``b`` elements except the last (``≤ b``).  If ``K' < K``, pad with
  arbitrary distinct elements — extra splitters only refine partitions.
  Cost ``O((N/B)·lg_{M/B}(N/(bB)))``.

* **Two-sided**: when ``a ≥ N/(2K)`` or ``b ≤ 2N/K`` the plain
  ``1/K``-quantile already satisfies both bounds and its cost
  ``O((N/B)·lg_{M/B}(K/B))`` is within the target.  Otherwise set
  ``K' = ⌊(bK - N)/(b - a)⌋``, split off the ``aK'`` smallest elements
  ``S_low`` (one selection + one filter scan), and return: the
  ``1/K'``-quantile of ``S_low`` (partitions of size exactly ``a``), its
  maximum as ``s_{K'}``, and the ``1/(K-K')``-quantile of ``S_high``.
  The paper's choice of ``K'`` guarantees
  ``|S_high| = N - aK' ∈ [a(K-K'), b(K-K')]`` (asserted at runtime).
  Cost ``O((aK/B)·lg_{M/B}(K/B) + (N/B)·lg_{M/B}(N/(bB)))``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_sort
from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.records import composite, composite_of, empty_records
from ..em.streams import BlockWriter, scan_chunks
from ..alg.selection import select_rank_fast
from .multiselect import multi_select
from .spec import SplitterResult, validate_params

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = [
    "right_grounded_splitters",
    "left_grounded_splitters",
    "two_sided_splitters",
    "approximate_splitters",
]


def approximate_splitters(
    machine: "Machine", file: EMFile, k: int, a: int, b: int
) -> SplitterResult:
    """Dispatch to the right variant by the grounding of ``(a, b)``.

    The degenerate ``K = N`` case (§1.1: "an algorithm can simply return
    the input S directly") is handled here: every element becomes a
    singleton partition, so the splitters are the ``N-1`` smallest
    elements.
    """
    params = validate_params(len(file), k, a, b)
    if k == len(file):
        return _degenerate_all_elements(machine, file, params)
    if params.is_right_grounded:
        return right_grounded_splitters(machine, file, k, a)
    if params.is_left_grounded:
        return left_grounded_splitters(machine, file, k, b)
    return two_sided_splitters(machine, file, k, a, b)


def _degenerate_all_elements(machine, file, params) -> SplitterResult:
    """K = N: return the N-1 smallest elements (all but the maximum)."""
    from ..alg.sort import external_sort

    with machine.phase("splitters-degenerate"):
        sorted_file = external_sort(machine, file)
        try:
            splitters = read_runs([sorted_file])[:-1]
        finally:
            sorted_file.free()
    return SplitterResult(splitters, params, "degenerate/K=N")


# ----------------------------------------------------------------------
# Right-grounded
# ----------------------------------------------------------------------
def right_grounded_splitters(
    machine: "Machine", file: EMFile, k: int, a: int
) -> SplitterResult:
    """Solve the right-grounded instance (``b = N``)."""
    n = len(file)
    params = validate_params(n, k, a, n)
    if k == 1:
        return SplitterResult(empty_records(0), params, "right-grounded")
    if a == 0:
        # Any K-1 distinct elements work: all size constraints are vacuous.
        splitters = _arbitrary_distinct(machine, file, k - 1)
        return SplitterResult(splitters, params, "right-grounded/trivial")

    with machine.phase("splitters-right"):
        # S': the first aK elements of the file (any aK would do).
        s_prime = _take_prefix(machine, file, a * k)
        try:
            ranks = a * np.arange(1, k, dtype=np.int64)
            splitters = multi_select(machine, s_prime, ranks)
        finally:
            s_prime.free()
    return SplitterResult(_sorted(machine, splitters), params, "right-grounded")


# ----------------------------------------------------------------------
# Left-grounded
# ----------------------------------------------------------------------
def left_grounded_splitters(
    machine: "Machine", file: EMFile, k: int, b: int
) -> SplitterResult:
    """Solve the left-grounded instance (``a = 0``)."""
    n = len(file)
    params = validate_params(n, k, 0, b)
    k_prime = -(-n // b)  # ceil(N/b)
    with machine.phase("splitters-left"):
        if k_prime >= 2:
            ranks = b * np.arange(1, k_prime, dtype=np.int64)
            main = multi_select(machine, file, ranks)
        else:
            main = empty_records(0)
        if k_prime < k:
            pad = _arbitrary_distinct(
                machine, file, k - k_prime, exclude=main
            )
            main = machine.kernel.concat([main, pad])
    return SplitterResult(_sorted(machine, main), params, "left-grounded")


# ----------------------------------------------------------------------
# Two-sided
# ----------------------------------------------------------------------
def two_sided_splitters(
    machine: "Machine", file: EMFile, k: int, a: int, b: int
) -> SplitterResult:
    """Solve the two-sided instance (``a > 0`` and ``b < N``)."""
    n = len(file)
    params = validate_params(n, k, a, b)
    if k == 1:
        return SplitterResult(empty_records(0), params, "two-sided")

    if 2 * a * k >= n or 2 * n >= b * k:
        # Quantile fallback regime: the 1/K-quantile satisfies both bounds.
        with machine.phase("splitters-2s-quantile"):
            ranks = (np.arange(1, k, dtype=np.int64) * n) // k
            splitters = multi_select(machine, file, ranks)
        return SplitterResult(
            _sorted(machine, splitters), params, "two-sided/quantile-fallback"
        )

    k_prime = (b * k - n) // (b - a)
    if not 1 <= k_prime <= k - 1:
        raise AssertionError(
            f"K'={k_prime} out of [1, K-1] — violates the paper's §5.1 claim"
        )

    with machine.phase("splitters-2s"):
        # S_low = the aK' smallest elements; s_{K'} = max(S_low).
        x = select_rank_fast(machine, file, a * k_prime)
        low_file, high_file = _split_at(machine, file, x)
        try:
            parts: list[np.ndarray] = []
            if k_prime >= 2:
                low_ranks = a * np.arange(1, k_prime, dtype=np.int64)
                parts.append(multi_select(machine, low_file, low_ranks))
            parts.append(np.array([x]))
            k_high = k - k_prime
            n_high = len(high_file)
            if not a * k_high <= n_high <= b * k_high:
                raise AssertionError(
                    f"|S_high|={n_high} outside [a(K-K'), b(K-K')] = "
                    f"[{a * k_high}, {b * k_high}]"
                )
            if k_high >= 2:
                high_ranks = (np.arange(1, k_high, dtype=np.int64) * n_high) // k_high
                parts.append(multi_select(machine, high_file, high_ranks))
            splitters = machine.kernel.concat(parts)
        finally:
            low_file.free()
            high_file.free()
    return SplitterResult(_sorted(machine, splitters), params, "two-sided")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _sorted(machine: "Machine", records: np.ndarray) -> np.ndarray:
    """Sort the (small, memory-resident) splitter list, charged."""
    cmp_sort(machine, len(records))
    return machine.kernel.sort_by_composite(records)


def _take_prefix(machine: "Machine", file: EMFile, count: int) -> EMFile:
    """Copy the first ``count`` records into a fresh file
    (``O(1 + count/B)`` I/Os)."""
    if count > len(file):
        raise SpecError(f"cannot take {count} of {len(file)} records")
    taken = 0
    with BlockWriter(machine, "prefix") as writer:
        with machine.memory.lease(machine.B, "prefix-read"):
            i = 0
            while taken < count:
                block = file.read_block(i)
                need = min(len(block), count - taken)
                writer.write(block[:need])
                taken += need
                i += 1
        return writer.close()


def _arbitrary_distinct(
    machine: "Machine", file: EMFile, count: int, exclude: np.ndarray | None = None
) -> np.ndarray:
    """Read ``count`` distinct elements off the front of the file, skipping
    any whose composite appears in ``exclude``.  ``O(1 + count/B)`` I/Os
    in the common case (composites are globally distinct, so every record
    qualifies unless excluded).

    The picked elements and the exclusion set are both part of the
    problem's *output* (the splitter list), which lives on the output
    tape rather than in working memory — only the scan buffer is
    charged (see DESIGN.md, "Accounting conventions")."""
    excluded = set() if exclude is None else set(composite(exclude).tolist())
    picked: list[np.ndarray] = []
    need = count
    with machine.memory.lease(machine.B, "arb-distinct"):
        for i in range(file.num_blocks):
            if need <= 0:
                break
            block = file.read_block(i)
            comps = composite(block)
            mask = np.fromiter(
                (c not in excluded for c in comps.tolist()),
                dtype=bool,
                count=len(comps),
            )
            chosen = block[mask][:need]
            picked.append(chosen)
            need -= len(chosen)
        if need > 0:
            raise SpecError("not enough distinct elements to pad splitters")
    return machine.kernel.concat(picked)


def _split_at(
    machine: "Machine", file: EMFile, pivot: np.void
) -> tuple[EMFile, EMFile]:
    """One scan splitting the file into (≤ pivot, > pivot) files."""
    p = composite_of(int(pivot["key"]), int(pivot["uid"]))
    with (
        BlockWriter(machine, "split-low") as low_writer,
        BlockWriter(machine, "split-high") as high_writer,
    ):
        with scan_chunks(file, machine.load_limit, "split-scan") as chunks:
            for chunk in chunks:
                cmp_linear(machine, len(chunk))
                mask = composite(chunk) <= p
                low_writer.write(chunk[mask])
                high_writer.write(chunk[~mask])
        return low_writer.close(), high_writer.close()
