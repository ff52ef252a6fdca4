"""Multi-way distribution of a file by pivot elements.

One distribution pass reads the input once and appends every record to the
bucket determined by the pivots — the workhorse of distribution sort,
multi-partition and the memory-splitters routine.  Bucket ``i`` receives
the records in ``(p_{i-1}, p_i]`` (composite total order, with
``p_{-1} = -inf`` and ``p_{f-1} = +inf``), matching the paper's partition
convention ``P_i = S ∩ (s_{i-1}, s_i]``.

Memory: one reader block plus one writer block per bucket, all leased —
``(f+1)·B <= M`` is required and enforced by the accountant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_search
from ..em.file import EMFile
from ..em.records import composite
from ..em.streams import BlockWriter, scan_chunks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["distribute_by_pivots"]


def distribute_by_pivots(
    machine: "Machine", file: EMFile, pivots: np.ndarray, label: str = "distribute"
) -> list[EMFile]:
    """Distribute ``file`` into ``len(pivots)+1`` bucket files in one pass.

    ``pivots`` is a record array sorted by composite order with distinct
    composites.  Returns the bucket files in order; their concatenation is
    a permutation of the input and every record of bucket ``i`` precedes
    (in the total order) every record of bucket ``i+1``.

    I/O: ``N/B`` reads plus one write per output block
    (``<= N/B + f`` writes).
    """
    pivot_comps = composite(pivots)
    if len(pivot_comps) > 1 and not np.all(np.diff(pivot_comps) > 0):
        raise ValueError("pivots must be sorted with distinct composites")
    f = len(pivots) + 1
    writers: list[BlockWriter] = []
    try:
        for i in range(f):
            writers.append(BlockWriter(machine, f"{label}-bucket{i}"))
        # Scan in memory-sized chunks (same I/O count as block-at-a-time;
        # the grouping work then runs once per chunk instead of per block).
        kernel = machine.kernel
        with scan_chunks(file, machine.load_limit, f"{label}-in") as chunks:
            for chunk in chunks:
                if len(chunk) == 0:
                    continue
                idx = kernel.bucket_of(chunk, pivot_comps)
                cmp_search(machine, len(chunk), len(pivot_comps))
                for b, group in kernel.group_by_bucket(chunk, idx):
                    writers[b].write(group)
    except BaseException:
        for w in writers:
            w.abort()
        raise
    return [w.close() for w in writers]
