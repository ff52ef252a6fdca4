"""The pre-paper multi-selection route (§1.2).

Before Theorem 4, the best known approach to multi-selection was: run
exact multi-partition at the target ranks (``O((N/B)·lg_{M/B} K)`` I/Os,
Aggarwal–Vitter), then return the largest element of every partition.
Theorem 4's ``O((N/B)·lg_{M/B}(K/B))`` algorithm separates the two
problems for small ``K``; this module exists so the experiments can
measure that separation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear
from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import RECORD_DTYPE, composite
from ..em.streams import scan_chunks
from ..alg.multipartition import multi_partition_at_ranks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["multiselect_via_multipartition"]


def multiselect_via_multipartition(
    machine: "Machine", file: EMFile, ranks) -> np.ndarray:
    """Multi-selection by multi-partition + per-partition max scan.

    ``ranks`` may be unsorted / duplicated; answers align with the input.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n = len(file)
    if len(ranks) == 0 or np.any(ranks < 1) or np.any(ranks > n):
        raise SpecError(f"ranks must be non-empty within [1, {n}]")
    unique_sorted, inverse = np.unique(ranks, return_inverse=True)

    with machine.phase("baseline-mp-multiselect"):
        partitioned = multi_partition_at_ranks(
            machine, file, [int(r) for r in unique_sorted]
        )
        try:
            answers = np.empty(len(unique_sorted), dtype=RECORD_DTYPE)
            # Partition i (0-based) ends exactly at rank unique_sorted[i]:
            # its maximum is the answer for that rank.
            for i in range(len(unique_sorted)):
                best_comp = None
                best = None
                with scan_chunks(
                    partitioned.segments_of(i), machine.B, "mp-max-scan"
                ) as blocks:
                    for block in blocks:
                        if len(block) == 0:
                            continue
                        cmp_linear(machine, len(block))
                        comps = composite(block)
                        j = int(np.argmax(comps))
                        if best_comp is None or comps[j] > best_comp:
                            best_comp = int(comps[j])
                            best = block[j]
                if best is None:
                    raise AssertionError("empty partition at a target rank")
                answers[i] = best
        finally:
            partitioned.free()
    return answers[inverse]
