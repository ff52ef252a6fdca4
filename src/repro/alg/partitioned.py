"""Result type for materialized partitionings.

The approximate K-partitioning problem asks for the partitions "in a
linked list, where the elements of P_1 precede those of P_2, ..." with
arbitrary order inside a partition.  :class:`PartitionedFile` is the
simulator analogue: an ordered list of disk-resident *segments* whose
concatenation lists the partitions front to back, plus the assignment of
segments to partitions.  Keeping segments (rather than one contiguous
file) matches the linked-list output convention and avoids charging a
gratuitous ``O(N/B)`` concatenation; :meth:`materialize` performs that
concatenation when a consumer needs contiguity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.errors import FileError
from ..em.file import EMFile
from ..em.records import empty_records
from ..em.streams import BlockWriter, scan_chunks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["PartitionedFile"]


class PartitionedFile:
    """An ordered sequence of record segments grouped into partitions.

    Parameters
    ----------
    machine:
        The owning machine.
    segments:
        Disk files, in output order.  Ownership transfers to this object
        (``free()`` releases them).
    segment_partition:
        For each segment, the (0-based) index of the partition it belongs
        to; must be non-decreasing.
    partition_sizes:
        Size of every partition (zero-size partitions allowed; they simply
        have no segments).
    """

    def __init__(
        self,
        machine: "Machine",
        segments: list[EMFile],
        segment_partition: list[int],
        partition_sizes: list[int],
    ) -> None:
        if len(segments) != len(segment_partition):
            raise FileError("segments and segment_partition must be parallel")
        if any(s < 0 for s in partition_sizes):
            raise FileError("partition sizes must be non-negative")
        if segment_partition != sorted(segment_partition):
            raise FileError("segment_partition must be non-decreasing")
        sums = [0] * len(partition_sizes)
        for seg, p in zip(segments, segment_partition):
            if not 0 <= p < len(partition_sizes):
                raise FileError(f"segment assigned to invalid partition {p}")
            sums[p] += len(seg)
        if sums != list(partition_sizes):
            raise FileError(
                f"segment lengths {sums} do not match partition sizes "
                f"{list(partition_sizes)}"
            )
        self.machine = machine
        self.segments = segments
        self.segment_partition = list(segment_partition)
        self.partition_sizes = list(partition_sizes)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return len(self.partition_sizes)

    def __len__(self) -> int:
        """Total number of records across all partitions."""
        return sum(self.partition_sizes)

    def segments_of(self, partition: int) -> list[EMFile]:
        """The segments making up one partition (possibly empty)."""
        return [
            seg
            for seg, p in zip(self.segments, self.segment_partition)
            if p == partition
        ]

    # ------------------------------------------------------------------
    def to_numpy_partitions(self) -> list[np.ndarray]:
        """Materialize every partition as a numpy array — *uncounted*;
        verification use only."""
        out: list[np.ndarray] = []
        for p in range(self.num_partitions):
            parts = [seg.to_numpy() for seg in self.segments_of(p)]  # emlint: disable=R2 — verification-only, documented uncounted
            out.append(
                self.machine.kernel.concat(parts) if parts else empty_records(0)
            )
        return out

    def materialize(self) -> tuple[EMFile, list[int]]:
        """Concatenate all segments into one contiguous file (counted,
        ``O(N/B + #segments)`` I/Os).  Returns ``(file, partition_sizes)``.
        The segments themselves are left intact."""
        with BlockWriter(self.machine, "materialize") as writer:
            with scan_chunks(self.segments, self.machine.B, "materialize-in") as blocks:
                for block in blocks:
                    writer.write(block)
            out = writer.close()
        return out, list(self.partition_sizes)

    def free(self) -> None:
        """Release every segment's disk blocks."""
        for seg in self.segments:
            seg.free()
        self.segments = []
        self.segment_partition = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PartitionedFile({self.num_partitions} partitions, "
            f"{len(self)} records, {len(self.segments)} segments)"
        )
