"""Kernel backend interface: the *data movement* half of the simulator.

The EM layer splits every hot operation into two halves:

* **accounting** — I/O charges, phase attribution, comparison counts,
  access traces, lease bookkeeping.  This is the scientific quantity the
  paper's claims are checked against; it lives in
  :class:`~repro.em.disk.Disk` / :class:`~repro.em.machine.Machine` and
  is guarded by emlint and the strict sanitizer.  Kernels never touch
  it.
* **movement** — the numpy work that actually shuffles record bytes:
  gathering blocks into a contiguous array, scattering a batch payload
  back into blocks, concatenating record parts, sorting by the
  composite order, bucketing against pivots, grouping a chunk by
  destination bucket, and rank-partitioning a memory load.  This half
  is *pure* (no counters, no model state) and therefore swappable.

A :class:`KernelBackend` implements the movement half.  Every backend
must be **byte-identical** to every other: same inputs produce the same
output arrays, bit for bit — ordering guarantees included (grouping
preserves input order within a bucket, sorting orders by the composite
and keeps equal composites in input order, rank partitions apply
``np.argpartition`` with the same ``kth`` list).  The differential
harness in ``tests/test_kernels.py`` enforces this across all registered
experiments and the service paths, alongside counter/phase/trace
identity.

The base class carries the canonical (definitional) implementations of
the batch-comparison operations; backends override the movement-heavy
operations where a faster strategy exists.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..records import composite

__all__ = ["KernelBackend"]


class KernelBackend:
    """Interface + canonical semantics for the movement operations.

    Subclasses set :attr:`name` (recorded in trace metadata and
    ``results.json``) and may override any operation, as long as
    outputs stay byte-identical to these definitions.
    """

    #: Backend name, stamped into traces and results.
    name: str = ""

    # ------------------------------------------------------------------
    # Block movement (Disk.read_many / write_many delegate here *after*
    # validating ids and charging the model cost)
    # ------------------------------------------------------------------
    def gather_blocks(
        self,
        blocks: dict[int, tuple[np.ndarray, int, int]],
        block_ids: Sequence[int],
    ) -> np.ndarray:
        """Concatenate the stored blocks ``block_ids`` (non-empty, all
        validated by the caller) into one fresh record array.

        ``blocks`` is the disk's block map: block id ->
        ``(arena, offset, length)``, the block's ``length`` records at
        record ``offset`` of a :data:`~repro.em.records.RAW_DTYPE`
        arena.  The blocks of one :meth:`Disk.write_many
        <repro.em.disk.Disk.write_many>` run share an arena at
        consecutive offsets; an allocated, never-written block has
        length 0.  Backends may exploit the shared arenas or ignore
        them; the output must equal the blocks' records concatenated in
        the given order.
        """
        raise NotImplementedError

    def scatter_blocks(
        self,
        blocks: dict[int, tuple[np.ndarray, int, int]],
        block_ids: Sequence[int],
        data: np.ndarray,
        block_size: int,
    ) -> None:
        """Store the concatenated record payload ``data`` into
        ``block_ids`` (block ``i`` receives ``data[i*B:(i+1)*B]``; the
        last block the remainder) by setting each id's
        ``(arena, offset, length)`` entry in the block map ``blocks``.

        The disk calls this once per run of a ``write_many`` payload,
        after it has validated ids and run shapes and charged the
        writes.  The kernel must copy ``data`` into
        :data:`~repro.em.records.RAW_DTYPE` arenas (stored blocks never
        alias caller memory).  A stored arena is never written again,
        so the run's blocks may share one; blocks of different runs
        never do.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Record concatenation
    # ------------------------------------------------------------------
    def concat(self, parts: list[np.ndarray]) -> np.ndarray:
        """Concatenate record arrays into a fresh array (empty list →
        empty record array; a single part is still copied)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Batch comparisons (canonical implementations — semantics, not
    # strategy; charging stays with the caller via em.comparisons)
    # ------------------------------------------------------------------
    def sort_by_composite(self, records: np.ndarray) -> np.ndarray:
        """Records in composite (``(key, uid)``) order, equal composites
        in input order (a fresh array).

        That is the result of a stable argsort, which this definition
        runs; a backend may reach the same permutation another way.
        """
        order = np.argsort(composite(records), kind="stable")
        return records[order]

    def bucket_of(
        self, records: np.ndarray, pivot_composites: np.ndarray
    ) -> np.ndarray:
        """Bucket index of each record against sorted pivot composites:
        ``#{pivots < record}`` (a record equal to pivot ``p_i`` lands in
        bucket ``i`` — the paper's ``(p_{i-1}, p_i]`` convention)."""
        return np.searchsorted(
            pivot_composites, composite(records), side="left"
        )

    def partition_at(self, records: np.ndarray, kth0: np.ndarray) -> np.ndarray:
        """Records permuted so each 0-based boundary in ``kth0`` holds
        its order statistic (one ``np.argpartition`` multi-pivot pass;
        ``kth0`` must be the deduplicated, in-range boundary list)."""
        order = np.argpartition(composite(records), kth0)
        return records[order]

    def rank_order(self, records: np.ndarray, kth0: np.ndarray) -> np.ndarray:
        """The ``np.argpartition`` permutation itself, for callers that
        need to map positions back to input indices."""
        return np.argpartition(composite(records), kth0)

    # ------------------------------------------------------------------
    # Bucket distribution
    # ------------------------------------------------------------------
    def group_by_bucket(
        self, records: np.ndarray, bucket_idx: np.ndarray
    ) -> Iterable[tuple[int, np.ndarray]]:
        """Group ``records`` by their ``bucket_idx``.

        Yields ``(bucket, group)`` pairs in ascending bucket order,
        skipping empty buckets, with each group preserving the records'
        input order — the invariant that makes distribution passes
        backend-independent.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
