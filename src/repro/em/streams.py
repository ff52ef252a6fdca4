"""Buffered streams over :class:`~repro.em.file.EMFile` with leased memory.

These are the only building blocks algorithms need for sequential I/O:

* :func:`scan_chunks` — the forward scan: one file, or several files as
  one stream (a partition's segments), read ``chunk_records // B``
  blocks per step under one lease; returns a close-aware
  :class:`ChunkScanner`;
* :class:`BlockWriter` — record-granular appends, flushed in full blocks;
* :class:`BucketWriter` — the same for ``f`` bucket files at once (the
  distribution pass), every bucket's full blocks in one batched write;
* :func:`merge_sorted_files` — k-way merge of sorted files using the
  block-frontier technique (vectorized; still one read per block and one
  write per output block, exactly as the model counts);
* :func:`copy_file` — linear-I/O file copy.

A load that takes whole files at once is
:func:`~repro.em.file.read_runs`, one ``read_many`` over their blocks.

Every stream leases its buffer space from the machine's
:class:`~repro.em.machine.MemoryAccountant` when its ``with`` block is
entered and returns it when the block exits, so the sum of open streams
can never exceed ``M``.  A stream that was never entered holds nothing,
and reading or writing it raises :class:`~repro.em.errors.StreamError`
before any I/O or charge.

A scan step of several blocks moves them through the disk's batched
fast path (:meth:`~repro.em.disk.Disk.read_many` / ``write_many``) —
one numpy concatenation per chunk instead of one Python call per block
— while charging exactly the same per-block model cost.  A one-block
step is one :meth:`~repro.em.disk.Disk.read`, the cheaper call for a
scan that stops early and pays only for the blocks it read.  A
:class:`BucketWriter` writes one concatenation and one ``write_many``
per chunk for all its buckets, each bucket's blocks a run with an arena
of its own.  Record concatenation and merge ordering dispatch through
the machine's :attr:`~repro.em.machine.Machine.kernel` backend, so a
backend swap changes wall-clock behaviour only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .comparisons import cmp_search
from .errors import FileError, StreamError
from .file import EMFile, append_runs
from .records import composite, empty_records

if TYPE_CHECKING:  # pragma: no cover
    from .machine import Machine

__all__ = [
    "BlockWriter",
    "BucketWriter",
    "ChunkScanner",
    "scan_chunks",
    "merge_sorted_files",
    "copy_file",
]


def _closed_error(stream: str, lease) -> StreamError:
    """The error for using a closed stream; one never entered says so."""
    if not lease.acquired:
        return StreamError(f"{stream} was never entered: open it with `with`")
    return StreamError(f"{stream} is closed")


class BlockWriter:
    """Record-granular append buffer that flushes full blocks to a new file.

    Entering the ``with`` block leases ``B`` records for its buffer; a
    writer that was never entered is closed.  ``close()`` flushes the
    trailing partial block and returns the finished :class:`EMFile`; a
    failure inside the ``with`` block aborts it.
    """

    def __init__(self, machine: "Machine", label: str = "writer") -> None:
        self.machine = machine
        self._lease = machine.memory.lease(machine.B, label)
        self._file = EMFile(machine)
        self._parts: list[np.ndarray] = []
        self._buffered = 0
        self._closed = True  # until __enter__ takes the lease

    @property
    def records_written(self) -> int:
        """Records accepted so far (including still-buffered ones)."""
        return len(self._file) + self._buffered

    def write(self, records: np.ndarray) -> None:
        """Append an array of records (any length)."""
        if self._closed:
            raise _closed_error("writer", self._lease)
        if len(records) == 0:
            return
        self._parts.append(records)
        self._buffered += len(records)
        B = self.machine.B
        if self._buffered >= B:
            data = self.machine.kernel.concat(self._parts)
            n_full = (len(data) // B) * B
            # One batched write for all full blocks (same one-I/O-per-
            # block cost as appending them individually).
            self._file.append_blocks(data[:n_full])
            rest = data[n_full:]
            self._parts = [rest] if len(rest) else []
            self._buffered = len(rest)

    def close(self) -> EMFile:
        """Flush and return the written file."""
        if self._closed:
            raise _closed_error("writer", self._lease)
        if self._buffered:
            self._file.append_block(self.machine.kernel.concat(self._parts))
            self._parts = []
            self._buffered = 0
        self._lease.release()
        self._closed = True
        return self._file

    def abort(self) -> None:
        """Discard everything written and release resources."""
        if self._closed:
            return
        self._lease.release()
        self._file.free()
        self._closed = True

    def __enter__(self) -> "BlockWriter":
        self._lease.acquire()
        self._closed = False
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


class BucketWriter:
    """Record-granular appends to ``f`` new bucket files, in full blocks.

    The distribution pass's writer: one ``f·B``-record lease holds a
    block buffer per bucket.  :meth:`write` takes one chunk's groups and
    appends every bucket's full blocks with one concatenation and one
    batched write (:func:`~repro.em.file.append_runs`, one run per
    bucket, ids in ascending bucket order).  :meth:`close` appends each
    bucket's partial last block, in ascending bucket order, and returns
    the files.  Block ids, bytes, trace and I/O count are those of one
    :class:`BlockWriter` per bucket; only the Python-level calls differ.
    Use it as a context manager: entering takes the lease, a writer that
    was never entered is closed, and a failure inside the ``with``
    block, :meth:`close` included, aborts it.
    """

    def __init__(self, machine: "Machine", buckets: int, label: str = "buckets") -> None:
        self.machine = machine
        self._lease = machine.memory.lease(buckets * machine.B, label)
        self._files = [EMFile(machine) for _ in range(buckets)]
        self._parts: list[list[np.ndarray]] = [[] for _ in range(buckets)]
        self._buffered = [0] * buckets
        self._closed = True  # until __enter__ takes the lease

    def write(self, groups: Iterable[tuple[int, np.ndarray]]) -> None:
        """Append one chunk's ``(bucket, records)`` groups, ascending by
        bucket, and write every bucket's full blocks in one batch."""
        if self._closed:
            raise _closed_error("writer", self._lease)
        B = self.machine.B
        parts: list[np.ndarray] = []  # the full blocks, bucket by bucket
        files: list[EMFile] = []
        spans: list[tuple[int, int]] = []  # each file's run within parts
        end = 0
        for b, group in groups:
            pending = self._parts[b]
            total = self._buffered[b] + len(group)
            n_full = total - total % B
            if n_full:
                cut = n_full - self._buffered[b]
                parts += pending
                parts.append(group[:cut])
                files.append(self._files[b])
                spans.append((end, end + n_full))
                end += n_full
                group = group[cut:]
                pending.clear()
            if len(group):
                pending.append(group)
            self._buffered[b] = total - n_full
        if files:
            data = self.machine.kernel.concat(parts)
            append_runs(files, [data[start:stop] for start, stop in spans])

    def close(self) -> list[EMFile]:
        """Append every bucket's partial last block; return the files."""
        if self._closed:
            raise _closed_error("writer", self._lease)
        for f, parts in zip(self._files, self._parts):
            if parts:
                f.append_block(self.machine.kernel.concat(parts))
                parts.clear()
        self._lease.release()
        self._closed = True
        return self._files

    def abort(self) -> None:
        """Free every bucket's blocks and release the lease."""
        if self._closed:
            return
        self._lease.release()
        for f in self._files:
            f.free()
        self._closed = True

    def __enter__(self) -> "BucketWriter":
        self._lease.acquire()
        self._closed = False
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()


class ChunkScanner:
    """Forward scan of one file, or of several files as one stream.

    Returned by :func:`scan_chunks`.  Each step reads the next
    ``chunk_records // B`` blocks (at least one) of the current file,
    fewer at its end, so a chunk never spans two files, into a buffer
    leased when the ``with`` block is entered:
    one :meth:`~repro.em.file.EMFile.read_block` for a one-block step,
    so a scan that stops early is charged only for what it read, and
    one batched :meth:`~repro.em.file.EMFile.read_range` for a longer
    one.  The lease is released when the stream is exhausted, when
    :meth:`close` is called, or when the ``with`` block exits.  A stream
    that was never entered is closed.  A second ``iter()`` continues
    from the cursor, and a closed stream with blocks left raises
    :class:`~repro.em.errors.StreamError`.  Every scan is written::

        with scan_chunks(file, machine.load_limit, "scan") as chunks:
            for chunk in chunks:
                ...
    """

    def __init__(
        self, files: EMFile | Sequence[EMFile], chunk_records: int, label: str = "chunk"
    ) -> None:
        self._files = [files] if isinstance(files, EMFile) else list(files)
        self._step = 1
        self._lease = None
        if self._files:
            machine = self._files[0].machine
            for f in self._files:
                if f.machine is not machine:
                    raise FileError("files scanned as one stream must share a machine")
            self._step = max(1, chunk_records // machine.B)
            self._lease = machine.memory.lease(self._step * machine.B, label)
        self._file = 0  # the cursor: block _index of file _file
        self._index = 0
        self._closed = True  # until __enter__ takes the lease

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ChunkScanner":
        if self._lease is not None:
            self._lease.acquire()
        self._closed = False
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator[np.ndarray]:
        files, step = self._files, self._step
        while self._file < len(files):
            f = files[self._file]
            n = f.num_blocks
            while self._index < n:
                if self._closed:
                    raise _closed_error("stream", self._lease)
                i = self._index
                if step == 1:
                    chunk = f.read_block(i)
                    self._index = i + 1
                else:
                    stop = min(i + step, n)
                    chunk = f.read_range(i, stop)
                    self._index = stop
                yield chunk
            self._file += 1
            self._index = 0
        self.close()

    def close(self) -> None:
        """Release the chunk buffer lease (idempotent)."""
        if not self._closed:
            self._closed = True
            if self._lease is not None:
                self._lease.release()


def scan_chunks(
    files: EMFile | Sequence[EMFile], chunk_records: int, label: str = "chunk"
) -> ChunkScanner:
    """Scan ``files`` front to back in chunks of up to ``chunk_records``
    records.

    ``files`` is one file or a sequence of files read as one stream (a
    partition's segments); they must share a machine, or
    :class:`~repro.em.errors.FileError` is raised before anything is
    leased or charged.  ``chunk_records`` is rounded down to a multiple
    of ``B`` (at least one block) and leased from the ``with`` entry to
    the end of the scan; an empty sequence leases nothing.  Pass
    ``machine.load_limit`` for a full scan that counts, filters or
    copies, and ``machine.B`` for a scan that may stop early or must
    hold one block.  Returns a :class:`ChunkScanner`, which reads
    nothing until it is entered by a ``with``.
    """
    return ChunkScanner(files, chunk_records, label)


def merge_sorted_files(machine: "Machine", files: list[EMFile], writer: BlockWriter) -> None:
    """Merge sorted ``files`` into ``writer`` (k-way, block-frontier method).

    Each input file must be sorted by composite order.  Memory use: one
    block buffer per input plus a gather workspace of up to ``k*B`` records
    (leased); the caller's writer holds its own block.  Choose
    ``k <= (M - 2B) / (2B)`` to be safe.

    I/O cost: exactly one read per input block and one write per output
    block — the textbook merge cost.
    """
    k = len(files)
    if k == 0:
        return
    B = machine.B
    with machine.memory.lease(2 * k * B, "merge-buffers"):
        buffers: list[np.ndarray] = []
        next_block: list[int] = []
        for f in files:
            if f.num_blocks:
                buffers.append(f.read_block(0))
                next_block.append(1)
            else:
                buffers.append(empty_records(0))
                next_block.append(f.num_blocks)
        while True:
            # Refill any empty buffer that still has blocks.
            for i, f in enumerate(files):
                if len(buffers[i]) == 0 and next_block[i] < f.num_blocks:
                    buffers[i] = f.read_block(next_block[i])
                    next_block[i] += 1
            active = [i for i in range(k) if len(buffers[i])]
            if not active:
                break
            if len(active) == 1:
                # Single survivor: stream the rest through unchanged,
                # batching reads up to the k-block gather workspace the
                # lease already covers.
                i = active[0]
                writer.write(buffers[i])
                buffers[i] = empty_records(0)
                f = files[i]
                while next_block[i] < f.num_blocks:
                    stop = min(next_block[i] + k, f.num_blocks)
                    writer.write(f.read_range(next_block[i], stop))
                    next_block[i] = stop
                break
            # Emit everything <= the smallest frontier maximum.  Future
            # blocks of every run are >= that run's buffered maximum, so all
            # records <= threshold are currently buffered.
            threshold = min(int(composite(buffers[i][-1:])[0]) for i in active)
            gathered: list[np.ndarray] = []
            for i in active:
                comps = composite(buffers[i])
                cut = int(np.searchsorted(comps, threshold, side="right"))
                if cut:
                    gathered.append(buffers[i][:cut])
                    buffers[i] = buffers[i][cut:]
            out = machine.kernel.concat(gathered)
            cmp_search(machine, len(out), len(active))
            writer.write(machine.kernel.sort_by_composite(out))


def copy_file(machine: "Machine", file: EMFile, label: str = "copy") -> EMFile:
    """Copy ``file`` into a fresh file in ``O(N/B)`` I/Os.

    Moves data in memory-sized batches through the disk's vectorized
    path — the I/O count (one read and one write per block) is identical
    to a block-at-a-time copy.
    """
    with BlockWriter(machine, label) as writer:
        with scan_chunks(file, machine.load_limit, label) as chunks:
            for chunk in chunks:
                writer.write(chunk)
        out = writer.close()
    return out
