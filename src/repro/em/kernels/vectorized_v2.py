"""``vectorized_v2`` — arena-aware raw movement (the production backend).

Five strategies distinguish it from the ``numpy_v1`` reference; all
produce byte-identical outputs:

* **Arena-run gather** — blocks written in one ``write_many`` batch
  share a physical arena at consecutive offsets (the disk's block map
  records each block's ``(arena, offset, length)``).  A gather
  coalesces maximal runs of adjacent blocks and moves each run with a
  single slice copy instead of one copy per block, turning a ``k``-block
  read into ``O(#runs)`` memcpys.
* **Single-arena scatter** — a batch write copies its payload once into
  one arena and maps every block to its extent there, so the blocks it
  creates are themselves a coalescible run for later gathers.
* **One-call concat + fused grouping** — concatenation is one
  ``np.concatenate`` over the parts' raw views; bucket grouping applies
  one stable argsort take (a single fused gather) and slices group
  boundaries out of the result, rather than one mask pass per bucket.
* **Raw moves** — every copy and take above, and the takes of
  ``sort_by_composite`` and ``partition_at``, move records as
  :data:`~repro.em.records.RAW_DTYPE` items: one memory move per run
  instead of numpy's field-by-field structured copy.  Arenas stay raw;
  each returned array is converted back to records once.
* **Stability paid for only when it matters** — both sorts return the
  permutation a stable argsort would, more cheaply.
  ``sort_by_composite`` runs numpy's default, unstable argsort and
  checks the sorted composites for a tie: distinct composites have
  exactly one sorted order, so only a tie (equal ``(key, uid)``, as in
  multi-selection's intermixed instance, whose copies of a record differ
  only in ``grp``) falls back to the stable argsort.  ``group_by_bucket``
  narrows ids that all lie in ``[0, 65535]`` to ``uint16``, where
  numpy's stable argsort is a radix sort; other ids sort as given.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..records import RAW_DTYPE, as_records, composite, concat_records, take_records
from .base import KernelBackend

__all__ = ["VectorizedV2Kernel"]


class VectorizedV2Kernel(KernelBackend):
    """Arena-coalescing, fused-pass, raw-moving backend (default)."""

    name = "vectorized_v2"

    def gather_blocks(
        self,
        blocks: dict[int, tuple[np.ndarray, int, int]],
        block_ids: Sequence[int],
    ) -> np.ndarray:
        # Coalesce maximal runs of blocks physically adjacent in one
        # arena; each run then moves with a single slice copy.
        runs: list[tuple[np.ndarray, int, int]] = []  # (arena, offset, records)
        total = 0
        run_arena: np.ndarray | None = None
        run_off = 0  # record offset of the run's start in its arena
        run_len = 0  # records accumulated in the current run
        for bid in block_ids:
            arena, off, nb = blocks[bid]
            if run_arena is arena and off == run_off + run_len:
                run_len += nb
            else:
                if run_arena is not None:
                    runs.append((run_arena, run_off, run_len))
                run_arena, run_off, run_len = arena, off, nb
            total += nb
        runs.append((run_arena, run_off, run_len))
        out = np.empty(total, dtype=RAW_DTYPE)
        pos = 0
        for arena, off, n in runs:
            out[pos : pos + n] = arena[off : off + n]
            pos += n
        return as_records(out)

    def scatter_blocks(
        self,
        blocks: dict[int, tuple[np.ndarray, int, int]],
        block_ids: Sequence[int],
        data: np.ndarray,
        block_size: int,
    ) -> None:
        B = block_size
        # One copy for the whole batch: the arena.
        buf = data.view(RAW_DTYPE).copy()
        n = len(buf)
        for i, bid in enumerate(block_ids):
            off = i * B
            blocks[bid] = (buf, off, min(B, n - off))

    def concat(self, parts: list[np.ndarray]) -> np.ndarray:
        return concat_records(parts)

    def sort_by_composite(self, records: np.ndarray) -> np.ndarray:
        comp = composite(records)
        order = np.argsort(comp)
        ranked = comp[order]
        if np.any(ranked[1:] == ranked[:-1]):
            # A tie: only the stable sort fixes the order of equal items.
            order = np.argsort(comp, kind="stable")
        return take_records(records, order)

    def partition_at(self, records: np.ndarray, kth0: np.ndarray) -> np.ndarray:
        return take_records(records, np.argpartition(composite(records), kth0))

    def group_by_bucket(
        self, records: np.ndarray, bucket_idx: np.ndarray
    ) -> Iterable[tuple[int, np.ndarray]]:
        # Fused distribute pass: one stable argsort take groups every
        # bucket at once, and boundary slicing yields views into the
        # grouped copy.  Stability keeps input order within a bucket;
        # ids narrowed to 16 bits make that argsort a radix sort.
        if len(records) == 0:
            return
        keys = bucket_idx
        if bucket_idx.min() >= 0 and bucket_idx.max() <= 0xFFFF:
            keys = bucket_idx.astype(np.uint16)
        order = np.argsort(keys, kind="stable")
        sorted_idx = bucket_idx[order]
        grouped = take_records(records, order)
        boundaries = np.flatnonzero(np.diff(sorted_idx)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(records)]))
        for s, e in zip(starts, ends):
            yield int(sorted_idx[s]), grouped[s:e]
