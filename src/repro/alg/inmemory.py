"""In-memory multiple selection — the internal-memory engine (§1.2, [7]).

Kaligosi, Mehlhorn, Munro and Sanders (ICALP 2005) showed multiple
selection takes ``Θ(N·lg K)`` comparisons in internal memory — no full
``N·lg N`` sort is needed to cut a memory load at ``K`` ranks.  The EM
algorithms' base cases only ever need rank cuts, so they run on these
helpers instead of sorting:

* :func:`partition_at_ranks` — rearrange a record array so the elements
  of each rank range ``(r_{i-1}, r_i]`` are contiguous and in global
  range order (``numpy.argpartition`` with a sorted ``kth`` list — the
  introselect multi-pivot pass);
* :func:`select_at_ranks` — the elements at the given 1-based ranks.

Both charge the model's ``N·lg K`` comparisons (see
:mod:`repro.em.comparisons`), keeping the CPU counters aligned with the
internal-memory optimum rather than the sort bound.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_search

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["partition_at_ranks", "select_at_ranks"]


def partition_at_ranks(
    machine: "Machine", records: np.ndarray, ranks
) -> np.ndarray:
    """Return a copy of ``records`` grouped at the given boundary ranks.

    ``ranks`` are cumulative boundaries (``0 < r < n``, any order,
    duplicates tolerated): in the result, positions ``[0, r_1)`` hold the
    ``r_1`` smallest records, ``[r_1, r_2)`` the next ``r_2 - r_1``
    smallest, and so on — each range unordered internally (exactly what a
    base-case cut needs).  ``Θ(n·lg k)`` comparisons, charged.
    """
    n = len(records)
    kth = np.unique(np.asarray(ranks, dtype=np.int64))
    kth = kth[(kth > 0) & (kth < n)]
    if n == 0 or len(kth) == 0:
        return records.copy()
    cmp_search(machine, n, len(kth) + 1)
    return machine.kernel.partition_at(records, kth - 1)


def select_at_ranks(
    machine: "Machine", records: np.ndarray, ranks
) -> np.ndarray:
    """Return the records at the given 1-based ``ranks`` (aligned with the
    input order of ``ranks``; duplicates allowed).

    ``Θ(n·lg k)`` comparisons via one multi-pivot partition pass.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n = len(records)
    if np.any(ranks < 1) or np.any(ranks > n):
        raise ValueError(f"ranks must lie in [1, {n}]")
    if len(ranks) == 0:
        return records[:0]
    kth = np.unique(ranks) - 1
    order = machine.kernel.rank_order(records, kth)
    cmp_search(machine, n, len(kth))
    # Every rank r has r - 1 in kth, so order[r - 1] indexes its element.
    return records[order[ranks - 1]]
