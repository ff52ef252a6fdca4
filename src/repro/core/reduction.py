"""§3 — reduction: precise partitioning via approximate partitioning.

The lower-bound proof for left-grounded approximate K-partitioning rests
on this constructive reduction: given *any* solver producing ordered
partitions of size at most ``b``, precise ``(N/b)``-partitioning (all
partitions exactly ``b``) follows with only ``O(N/B)`` extra I/Os:

1. approximately partition ``S`` into ``P_1, ..., P_K``, each of size
   ``≤ b``;
2. sweep the partitions in order with a residue buffer ``R``: append
   ``P_i`` to ``R``; whenever ``|R| > b``, split off the ``b`` smallest
   elements of ``R`` as the next precise partition and carry the rest.
   Since ``|P_i| ≤ b``, the buffer never exceeds ``2b - 1`` and at most
   one split happens per step.

We implement the sweep faithfully (including the ``|R| > M`` regime,
where the rank-``b`` split uses external selection) so the reduction can
be exercised with arbitrary approximate solvers — the test suite feeds it
deliberately unbalanced ones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..em.comparisons import cmp_linear
from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.records import RECORD_DTYPE
from ..em.streams import BlockWriter, scan_chunks
from ..alg.partitioned import PartitionedFile
from ..alg.selection import select_rank_fast
from .partitioning import left_grounded_partition
from .splitters import _split_at

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["precise_partition_via_approx"]

#: Signature of an approximate left-grounded partitioner:
#: ``solver(machine, file, k, b) -> PartitionedFile`` with all sizes ≤ b.
ApproxSolver = Callable[["Machine", EMFile, int, int], PartitionedFile]


def precise_partition_via_approx(
    machine: "Machine",
    file: EMFile,
    part_size: int,
    approx_solver: ApproxSolver | None = None,
    k: int | None = None,
) -> PartitionedFile:
    """Cut ``file`` into partitions of *exactly* ``part_size`` records.

    ``len(file)`` must be a multiple of ``part_size``.  ``approx_solver``
    defaults to :func:`~repro.core.partitioning.left_grounded_partition`;
    ``k`` is the partition count handed to the approximate solver
    (defaults to ``⌈N/part_size⌉``).
    """
    n = len(file)
    b = int(part_size)
    if b < 1 or n % b != 0:
        raise SpecError("file length must be a positive multiple of part_size")
    solver = approx_solver or left_grounded_partition
    k_apx = k if k is not None else -(-n // b)

    with machine.phase("reduction-approx"):
        approx = solver(machine, file, k_apx, b)
    if any(s > b for s in approx.partition_sizes):
        raise SpecError("approximate solver produced a partition larger than b")

    with machine.phase("reduction-sweep"):
        if 2 * b + 3 * machine.B <= machine.M:
            out_segments = _sweep_in_memory(machine, approx, b)
        else:
            out_segments = _sweep_external(machine, approx, b)

    sizes = [b] * (n // b)
    return PartitionedFile(machine, out_segments, list(range(len(sizes))), sizes)


def _sweep_in_memory(machine: "Machine", approx: PartitionedFile, b: int) -> list[EMFile]:
    """Sweep with a memory-resident residue (``2b + O(B) ≤ M``).

    Cost: one read per input block plus one write per output block —
    ``≈ 2N/B + K`` I/Os, the reduction's advertised ``O(N/B)``.
    """
    out: list[EMFile] = []
    with machine.memory.lease(2 * b, "sweep-carry"):
        carry = np.empty(0, dtype=RECORD_DTYPE)
        try:
            for p in range(approx.num_partitions):
                # Append the *entire* partition before splitting (§3's
                # step 2): a partially-read partition is unordered
                # relative to its own unread blocks, so splitting
                # mid-partition could emit the wrong elements.
                for seg in approx.segments_of(p):
                    with scan_chunks(seg, machine.B, "sweep-read") as blocks:
                        for block in blocks:
                            carry = machine.kernel.concat([carry, block])
                    seg.free()
                while len(carry) > b:
                    cmp_linear(machine, 2 * len(carry))
                    idx = machine.kernel.rank_order(carry, np.array([b - 1]))
                    out.append(
                        EMFile.from_records(
                            machine, carry[idx[:b]], counted=True
                        )
                    )
                    carry = carry[idx[b:]]
            if len(carry):
                if len(carry) != b:
                    raise AssertionError(
                        "final residue not exactly b — sweep accounting broken"
                    )
                out.append(EMFile.from_records(machine, carry, counted=True))
        finally:
            approx.segments = []
            approx.segment_partition = []
    return out


def _sweep_external(machine: "Machine", approx: PartitionedFile, b: int) -> list[EMFile]:
    """Sweep with a disk-resident residue (for ``b = Ω(M)``).

    Each split is a linear selection + filter over ``≤ 2b`` records; an
    element is touched by at most two splits, so the total is still
    ``O(N/B)`` (with a larger constant than the in-memory path)."""
    out: list[EMFile] = []
    residue: list[EMFile] = []  # ordered segments of R (no copy on append)
    residue_len = 0
    try:
        for p in range(approx.num_partitions):
            for seg in approx.segments_of(p):
                residue.append(seg)
                residue_len += len(seg)
            while residue_len > b:
                emitted, residue, residue_len = _split_residue(
                    machine, residue, residue_len, b
                )
                out.append(emitted)
        if residue_len:
            if residue_len != b:
                raise AssertionError(
                    "final residue not exactly b — sweep accounting broken"
                )
            emitted, residue, residue_len = _split_residue(
                machine, residue, residue_len, b
            )
            out.append(emitted)
    finally:
        for seg in residue:
            seg.free()
        # Segments moved into the residue were owned by ``approx``;
        # detach so its free() does not double-free them.
        approx.segments = []
        approx.segment_partition = []
    return out


def _split_residue(
    machine: "Machine", residue: list[EMFile], residue_len: int, b: int
) -> tuple[EMFile, list[EMFile], int]:
    """Emit the ``b`` smallest records of the residue; return the rest.

    In-memory when the residue fits (``≤ 2b - 1`` records); otherwise the
    residue is concatenated and split externally around its rank-``b``
    element (both paths are ``O(|R|/B + 1)`` I/Os).
    """
    limit = machine.M  # whole-residue load; no stream buffers needed
    if residue_len <= limit:
        with machine.memory.lease(residue_len, "sweep-load"):
            data = read_runs(residue)
            for seg in residue:
                seg.free()
            from ..alg.inmemory import partition_at_ranks

            data = partition_at_ranks(machine, data, [b])
            emit = data[:b]
            rest = data[b:]
            emitted = EMFile.from_records(machine, emit, counted=True)
            rest_file = EMFile.from_records(machine, rest, counted=True)
        return emitted, ([rest_file] if len(rest_file) else []), len(rest_file)

    # External path: concatenate, select the rank-b element, filter.
    with BlockWriter(machine, "sweep-concat") as writer:
        with scan_chunks(residue, machine.B, "sweep-concat-in") as blocks:
            for block in blocks:
                writer.write(block)
        combined = writer.close()
    for seg in residue:
        seg.free()
    x = select_rank_fast(machine, combined, b)
    low, high = _split_at(machine, combined, x)
    combined.free()
    if len(low) != b:  # composites are distinct, so the cut is exact
        raise AssertionError("external residue split mis-sized")
    return low, ([high] if len(high) else []), len(high)
