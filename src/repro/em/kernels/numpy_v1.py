"""``numpy_v1`` — the plain per-block reference backend.

This is the straightforward numpy strategy the simulator's hot paths
used before batching landed, preserved verbatim as the *reference*
backend: one structured (field-by-field) copy per block on
gather/scatter (the bytes ``k`` successive
:meth:`Disk.read <repro.em.disk.Disk.read>` /
:meth:`Disk.write <repro.em.disk.Disk.write>` calls move),
``np.concatenate`` for record concatenation (which re-promotes the
structured field dtypes per input part), one boolean-mask pass per
bucket when grouping a chunk for distribution, and the base class's
structured takes for sorting and rank partitioning.  It adapts to the
disk's raw block map only at the boundary: each gathered block is
viewed as records before its copy, and each stored copy is viewed raw.

Every operation is simple enough to audit at a glance, which is the
point: the differential harness proves ``vectorized_v2`` byte-identical
to *this* backend, so v1's auditability transfers to v2's speed.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..records import RAW_DTYPE, RECORD_DTYPE
from .base import KernelBackend

__all__ = ["NumpyV1Kernel"]


class NumpyV1Kernel(KernelBackend):
    """Per-block reference backend (audit-friendly, no layout tricks)."""

    name = "numpy_v1"

    def gather_blocks(
        self,
        blocks: dict[int, tuple[np.ndarray, int, int]],
        block_ids: Sequence[int],
    ) -> np.ndarray:
        # One structured copy per block, then one concatenation — what
        # k successive Disk.read calls produce.  Shared arenas are
        # ignored.
        parts = []
        for bid in block_ids:
            arena, off, n = blocks[bid]
            parts.append(arena[off : off + n].view(RECORD_DTYPE).copy())
        return np.concatenate(parts)

    def scatter_blocks(
        self,
        blocks: dict[int, tuple[np.ndarray, int, int]],
        block_ids: Sequence[int],
        data: np.ndarray,
        block_size: int,
    ) -> None:
        # One stored structured copy per block — what k successive
        # Disk.write calls do; each block becomes its own arena.
        B = block_size
        for i, bid in enumerate(block_ids):
            stored = data[i * B : (i + 1) * B].copy()
            blocks[bid] = (stored.view(RAW_DTYPE), 0, len(stored))

    def concat(self, parts: list[np.ndarray]) -> np.ndarray:
        if not parts:
            return np.empty(0, dtype=RECORD_DTYPE)
        return np.concatenate(parts)

    def group_by_bucket(
        self, records: np.ndarray, bucket_idx: np.ndarray
    ) -> Iterable[tuple[int, np.ndarray]]:
        # One boolean mask per occupied bucket; masks preserve input
        # order, so groups match the fused backend byte for byte.
        for b in np.unique(bucket_idx):
            yield int(b), records[bucket_idx == b]
