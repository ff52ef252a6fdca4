"""Multi-way distribution of a file by pivot elements.

One distribution pass reads the input once and appends every record to the
bucket determined by the pivots — the workhorse of distribution sort,
multi-partition and the memory-splitters routine.  Bucket ``i`` receives
the records in ``(p_{i-1}, p_i]`` (composite total order, with
``p_{-1} = -inf`` and ``p_{f-1} = +inf``), matching the paper's partition
convention ``P_i = S ∩ (s_{i-1}, s_i]``.

Memory: a :class:`~repro.em.streams.BucketWriter` leases one block
buffer per bucket, ``f·B`` records, before the scan.  The scan then
reads chunks of ``load_limit`` records: all memory still free minus
``2B``, in whole blocks and at least one.  So ``(f+1)·B <= M`` is
required, and the accountant enforces it.  Each chunk's full blocks,
for every bucket, go to disk in one batched write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_search
from ..em.file import EMFile
from ..em.records import composite
from ..em.streams import BucketWriter, scan_chunks

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
    kernel = machine.kernel
    with BucketWriter(machine, len(pivots) + 1, f"{label}-buckets") as writer:
        # Scan in memory-sized chunks (same I/O count as block-at-a-time;
        # the grouping work then runs once per chunk instead of per block).
        with scan_chunks(file, machine.load_limit, f"{label}-in") as chunks:
            for chunk in chunks:
                if len(chunk) == 0:
                    continue
                idx = kernel.bucket_of(chunk, pivot_comps)
                cmp_search(machine, len(chunk), len(pivot_comps))
                writer.write(kernel.group_by_bucket(chunk, idx))
        return writer.close()
