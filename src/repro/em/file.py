"""EMFile: a sequence of records stored across disk blocks.

An :class:`EMFile` is the simulator's analogue of a file on disk: ``N``
records laid out across ``ceil(N/B)`` blocks, all full except possibly the
last.  Algorithms read and write through block-granular operations that
charge I/Os.  The counted whole-file read is :func:`read_runs` (one
batched read over one or several files); :meth:`EMFile.to_numpy` is the
uncounted whole-file view for tests and verification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import FileError
from .records import RECORD_DTYPE, empty_records

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = ["EMFile", "append_runs", "read_runs"]


class EMFile:
    """A handle to a block-aligned sequence of records on the simulated disk.

    Create with :meth:`from_records` (bulk load, optionally uncounted for
    inputs) or by appending blocks via
    :class:`~repro.em.streams.BlockWriter`.
    """

    def __init__(self, machine: "Machine") -> None:
        self.machine = machine
        self._block_ids: list[int] = []
        self._length = 0
        self._freed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, machine: "Machine", records: np.ndarray, *, counted: bool = True
    ) -> "EMFile":
        """Write ``records`` to a fresh file.

        With ``counted=False`` the writes are free — use this only to stage
        the *input* of an experiment (the model assumes the input already
        resides on disk).
        """
        if records.dtype != RECORD_DTYPE:
            raise FileError("EMFile stores record arrays only")
        f = cls(machine)
        if counted:
            f.append_blocks(records)
        else:
            with machine.disk.uncounted():
                f.append_blocks(records)
        return f

    @classmethod
    def adopt(
        cls, machine: "Machine", block_ids, length: int
    ) -> "EMFile":
        """Reattach a handle to blocks that already exist on disk.

        Crash recovery rebuilds :class:`EMFile` handles from block ids
        persisted in a snapshot; the blocks themselves were written (and
        charged) by the original process, so adoption itself performs no
        I/O.  The layout invariant is checked: ``length`` records must
        occupy exactly ``len(block_ids)`` blocks.
        """
        ids = [int(b) for b in block_ids]
        if length < 0:
            raise FileError("adopted length must be >= 0")
        B = machine.B
        if -(-length // B) != len(ids):
            raise FileError(
                f"{length} records do not fit exactly in {len(ids)} "
                f"blocks of {B}"
            )
        f = cls(machine)
        f._block_ids = ids
        f._length = int(length)
        return f

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of records in the file."""
        return self._length

    @property
    def num_blocks(self) -> int:
        return len(self._block_ids)

    @property
    def block_ids(self) -> tuple[int, ...]:
        return tuple(self._block_ids)

    def _check_live(self) -> None:
        if self._freed:
            raise FileError("file has been freed")

    # ------------------------------------------------------------------
    # Block-granular I/O (counted)
    # ------------------------------------------------------------------
    def read_block(self, index: int) -> np.ndarray:
        """Read the ``index``-th block (one read I/O)."""
        self._check_live()
        if not 0 <= index < len(self._block_ids):
            raise FileError(f"block index {index} out of range")
        return self.machine.disk.read(self._block_ids[index])

    def write_block(self, index: int, data: np.ndarray) -> None:
        """Overwrite the ``index``-th block (one write I/O).

        Only the last block may be partially full; overwriting an interior
        block with fewer than ``B`` records would corrupt the layout, so it
        is rejected.
        """
        self._check_live()
        if not 0 <= index < len(self._block_ids):
            raise FileError(f"block index {index} out of range")
        B = self.machine.B
        is_last = index == len(self._block_ids) - 1
        if not is_last and len(data) != B:
            raise FileError("interior blocks must contain exactly B records")
        if is_last:
            old_len = self._length - (len(self._block_ids) - 1) * B
            self._length += len(data) - old_len
        self.machine.disk.write(self._block_ids[index], data)

    def append_block(self, data: np.ndarray) -> None:
        """Append a new block of up to ``B`` records (one write I/O).

        The current last block must be full (files are append-only at block
        granularity; use a :class:`~repro.em.streams.BlockWriter` to buffer
        record-level appends).
        """
        self._check_live()
        B = self.machine.B
        if self._block_ids and self._length != len(self._block_ids) * B:
            raise FileError("cannot append: last block is partially full")
        if len(data) == 0:
            return
        (bid,) = self.machine.disk.allocate(1)
        try:
            self.machine.disk.write(bid, data)
        except BaseException:
            self.machine.disk.free([bid])  # don't leak on a failed write
            raise
        self._block_ids.append(bid)
        self._length += len(data)

    def read_range(self, start: int, stop: int) -> np.ndarray:
        """Read blocks ``[start, stop)`` in one batched call.

        Counts exactly ``stop - start`` read I/Os — same model cost,
        counters, phase attribution and trace as reading the blocks one
        :meth:`read_block` at a time — but moves them with a single
        numpy concatenation.  Returns the concatenated records.  The
        caller is responsible for leasing ``(stop - start) * B`` records
        of buffer memory (:func:`~repro.em.streams.scan_chunks` does
        this automatically).
        """
        self._check_live()
        if not 0 <= start <= stop <= len(self._block_ids):
            raise FileError(
                f"block range [{start}, {stop}) invalid for "
                f"{len(self._block_ids)}-block file"
            )
        return self.machine.disk.read_many(self._block_ids[start:stop])

    def append_blocks(self, data: np.ndarray) -> None:
        """Append ``ceil(len(data)/B)`` new blocks in one batched call.

        All new blocks are full except possibly the last — the same
        layout (and the same one-write-per-block model cost) as
        repeatedly calling :meth:`append_block` with ``B``-record
        slices.  Like :meth:`append_block`, requires the current last
        block to be full.  The one-file case of :func:`append_runs`.
        """
        append_runs([self], [data])

    # ------------------------------------------------------------------
    # Whole-file access
    # ------------------------------------------------------------------
    def to_numpy(self) -> np.ndarray:
        """Materialize the whole file as one numpy array, *uncounted*.

        A verification accessor: it charges no I/O and leases no memory,
        so use it in tests and result checking only.  Algorithm code
        reads a whole file with :func:`read_runs`, which charges one read
        per block, or scans it with :func:`~repro.em.streams.scan_chunks`.
        """
        self._check_live()
        parts = [self.machine.disk.peek(bid) for bid in self._block_ids]
        return self.machine.kernel.concat(parts) if parts else empty_records(0)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def free(self) -> None:
        """Release the file's blocks back to the disk."""
        if self._freed:
            return
        self.machine.disk.free(self._block_ids)
        self._block_ids = []
        self._length = 0
        self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._freed else f"{self._length} records"
        return f"EMFile({state}, {len(self._block_ids)} blocks)"


def append_runs(files: Sequence[EMFile], runs: Sequence[np.ndarray]) -> None:
    """Append ``runs[i]`` to ``files[i]``, for every ``i``, in one batch.

    Each file gains ``ceil(len(runs[i])/B)`` blocks, full except
    possibly the last, as :meth:`EMFile.append_blocks` lays them out.
    One :meth:`Disk.allocate <repro.em.disk.Disk.allocate>` hands out
    the ids in file order and one :meth:`Disk.write_many
    <repro.em.disk.Disk.write_many>` writes the runs, each into an arena
    of its own: the block ids, trace and one-write-per-block cost of
    appending the runs file by file.  Every file must be live, on one
    machine, and end in a full block, and every run but the last must
    fill whole blocks.  Atomic: on any failure the new blocks are freed
    and no file changes.
    """
    if not files:
        return
    machine = files[0].machine
    B = machine.B
    total = 0
    for f, run in zip(files, runs, strict=True):
        f._check_live()
        if run.dtype != RECORD_DTYPE:
            raise FileError("EMFile stores record arrays only")
        if f._length != len(f._block_ids) * B:
            raise FileError("cannot append: last block is partially full")
        total += len(run)
    if not total:
        return
    disk = machine.disk
    ids = disk.allocate(-(-total // B))
    try:
        disk.write_many(ids, runs)
    except BaseException:
        disk.free(ids)  # don't leak on a failed write
        raise
    start = 0
    for f, run in zip(files, runs):
        stop = start - (-len(run) // B)
        f._block_ids += ids[start:stop]
        f._length += len(run)
        start = stop


def read_runs(files: Sequence[EMFile]) -> np.ndarray:
    """Read every block of ``files``, in order, in one batch.

    The read-side twin of :func:`append_runs`: one :meth:`Disk.read_many
    <repro.em.disk.Disk.read_many>` over the files' block ids returns
    their records concatenated, with the counters, phase attribution
    and trace of reading each file with :meth:`EMFile.read_range`.
    Files with no blocks add nothing, and no files give an empty record
    array.  Every file must be live and on one machine, or
    :class:`~repro.em.errors.FileError` is raised before anything is
    charged.  The caller leases the buffer, as for
    :meth:`~EMFile.read_range`.
    """
    if not files:
        return empty_records(0)
    machine = files[0].machine
    ids: list[int] = []
    for f in files:
        f._check_live()
        if f.machine is not machine:
            raise FileError("files read in one batch must share a machine")
        ids += f._block_ids
    return machine.disk.read_many(ids)
