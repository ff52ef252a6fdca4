"""Shard workers and the pools that drive them.

A :class:`ShardWorker` owns one shard outright — its
:class:`~repro.em.machine.Machine`, the shard's record file, and a
:class:`~repro.service.online.LazyPartitionIndex` over it — and is
driven purely by request messages.  Both pools hold only the
coordinator's :class:`~repro.shard.transport.Endpoint` per shard, so
no worker, shard machine or shard file is reachable from the router:
a worker in this process sits behind a delivery closure, one in a
child process behind a pipe.  The same worker runs in-process and
inside a real child process behind the same message protocol,
mirroring the experiment runner's serial/parallel split.

The request protocol is declared once, in :data:`PROTOCOL`: each
request kind maps to its handler and its reply kind.  The worker
dispatches through that table and stamps the reply kind from it, and
both pools reject a kind that is not in it before anything is sent or
charged, so a misspelled kind fails at the coordinator call site.

Every reply carries the worker's measured ``(reads, writes,
comparisons)`` delta for receiving and handling the request (the
reply's own transmission is charged separately), which the router
feeds into per-shard I/O histograms — identically for in-process and
process workers, since the numbers travel in the message envelope.
A failing handler replies ``error`` with the exception text; pools
surface that as :class:`ShardError` at the coordinator.
"""

from __future__ import annotations

import multiprocessing
from collections import deque

import numpy as np

from ..alg.sampling import approx_quantile_pivots
from ..em.kernels import KernelBackend
from ..em.machine import Machine
from ..em.records import empty_records
from ..em.streams import BlockWriter
from ..service.online import LazyPartitionIndex
from .transport import Endpoint, Message, ShardError

__all__ = [
    "PROTOCOL",
    "ShardWorker",
    "InProcessWorkerPool",
    "ProcessWorkerPool",
    "make_pool",
    "WORKER_KINDS",
]


class ShardWorker:
    """One shard: a private machine, its record file, and a lazy engine.

    ``put`` sends a reply to the coordinator and ``get`` takes the next
    request from it (see :class:`~repro.shard.transport.Endpoint`).
    """

    def __init__(
        self,
        shard: int,
        put,
        get,
        *,
        memory: int,
        block: int,
        kernel: KernelBackend | None = None,
        sanitize: bool | None = None,
    ) -> None:
        self.shard = int(shard)
        self._machine = Machine(
            memory,
            block,
            kernel=kernel,
            sanitize=sanitize,
            label=f"shard-{shard}",
        )
        self._endpoint = Endpoint(self._machine, self.shard, "worker", put, get)
        self._writer: BlockWriter | None = None
        self._file = None
        self._engine: LazyPartitionIndex | None = None
        self._done = False

    # ------------------------------------------------------------------
    # Message loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Receive one request, handle it, send the reply.

        Returns ``False`` once a ``shutdown`` has been processed.  All
        handler failures become ``error`` replies rather than
        exceptions: the worker must stay alive to report them.
        """
        with self._machine.measure() as cost:
            message = self._endpoint.recv()
            try:
                handler, kind = _route(message.kind)
                payload = handler(self, message.payload)
            except Exception as exc:  # noqa: BLE001 - protocol boundary
                kind, payload = "error", f"{type(exc).__name__}: {exc}"
        self._endpoint.send(
            Message(kind, payload, io=(cost.reads, cost.writes, cost.comparisons))
        )
        return not self._done

    def run(self) -> None:
        """Serve until shutdown (the process-worker main loop)."""
        while self.step():
            pass

    # ------------------------------------------------------------------
    # Handlers (one per PROTOCOL entry; each returns the reply payload)
    # ------------------------------------------------------------------
    def _ingest(self, chunk) -> int:
        if self._writer is None:
            self._writer = BlockWriter(self._machine, "shard-ingest")
        self._writer.write(chunk)
        return self._writer.records_written

    def _seal(self, k) -> int:
        if self._writer is None:
            self._writer = BlockWriter(self._machine, "shard-ingest")
        self._file = self._writer.close()
        self._writer = None
        self._engine = LazyPartitionIndex(self._machine, self._file, k=max(1, int(k)))
        return len(self._file)

    def _sealed(self) -> LazyPartitionIndex:
        if self._engine is None:
            raise ShardError(f"shard {self.shard}: query before seal")
        return self._engine

    def _select(self, ranks) -> np.ndarray:
        return self._sealed().batch_select(np.asarray(ranks, dtype=np.int64))

    def _range_count(self, bounds) -> int:
        lo, hi = bounds
        return self._sealed().range_count(int(lo), int(hi))

    def _part(self, key) -> int:
        return self._sealed().partition_of(int(key))

    def _nleaves(self, _) -> int:
        return self._sealed().n_leaves

    def _pivots(self, n_pivots) -> np.ndarray:
        self._sealed()
        n_pivots = int(n_pivots)
        if n_pivots < 1 or len(self._file) == 0:
            return empty_records(0)
        return approx_quantile_pivots(self._machine, self._file, n_pivots)

    def _shutdown(self, _) -> None:
        self._done = True
        self._teardown()

    def _io_stats(self, _) -> dict:
        m = self._machine
        return {
            "shard": self.shard,
            "n": len(self._file) if self._file is not None else 0,
            "reads": m.io.reads,
            "writes": m.io.writes,
            "comparisons": m.comparisons,
            "lifetime_reads": m.disk.lifetime.reads,
            "lifetime_writes": m.disk.lifetime.writes,
            "lifetime_comparisons": m.lifetime_comparisons,
            "M": m.M,
            "B": m.B,
            "kernel": m.kernel.name,
            "stats": dict(self._engine.stats) if self._engine is not None else {},
        }

    def _teardown(self) -> None:
        if self._writer is not None:
            self._writer.abort()
            self._writer = None
        if self._engine is not None:
            self._engine.close()
            self._engine = None
        if self._file is not None:
            self._file.free()
            self._file = None
        self._machine.close()


#: The shard request protocol: request kind -> (handler, reply kind).
#: The comments give each request's payload and its reply's payload.
PROTOCOL: dict[str, tuple] = {
    "ingest": (ShardWorker._ingest, "ok"),  # record chunk -> records so far
    "seal": (ShardWorker._seal, "sealed"),  # leaf target k -> shard size n
    "select": (ShardWorker._select, "records"),  # local ranks -> records
    "range_count": (ShardWorker._range_count, "count"),  # (lo, hi) -> count
    "part": (ShardWorker._part, "leaf"),  # key -> local leaf index
    "nleaves": (ShardWorker._nleaves, "nleaves"),  # -> current leaf count
    "pivots": (ShardWorker._pivots, "pivots"),  # n_pivots -> candidates
    "io_stats": (ShardWorker._io_stats, "io_stats"),  # -> counter dict
    "shutdown": (ShardWorker._shutdown, "bye"),  # -> None
}


def _route(kind: str) -> tuple:
    """The ``(handler, reply kind)`` entry for a request ``kind``;
    :class:`ShardError` for a kind the protocol does not declare."""
    try:
        return PROTOCOL[kind]
    except KeyError:
        known = ", ".join(PROTOCOL)
        raise ShardError(f"unknown request kind {kind!r}; known: {known}") from None


# ----------------------------------------------------------------------
# Worker pools
# ----------------------------------------------------------------------
def _exchange(end: Endpoint | None, shard: int, kind: str, payload) -> Message:
    """One request/reply exchange over the coordinator endpoint ``end``.

    Raises :class:`ShardError` for an undeclared ``kind`` before
    anything is sent or charged, for a dead shard (``end`` is ``None``)
    and for an ``error`` reply.
    """
    _route(kind)
    if end is None:
        raise ShardError(f"shard {shard} worker is dead")
    end.send(Message(kind, payload))
    reply = end.recv()
    if reply.kind == "error":
        raise ShardError(f"shard {shard}: {reply.payload}")
    return reply


def _inproc_end(coordinator: "Machine", shard: int) -> Endpoint:
    """The coordinator's endpoint of a link to a new in-process worker.

    The link is two deques.  Sending a request appends it and runs the
    worker's :meth:`~ShardWorker.step` once, which leaves the reply on
    the other deque.  Only that delivery closure holds the worker.
    """
    to_worker: deque = deque()
    to_coord: deque = deque()
    worker = ShardWorker(
        shard,
        to_coord.append,
        to_worker.popleft,
        memory=coordinator.M,
        block=coordinator.B,
        kernel=coordinator.kernel,
        sanitize=coordinator.sanitize,
    )

    def deliver(message: Message) -> None:
        to_worker.append(message)
        worker.step()

    return Endpoint(coordinator, shard, "coordinator", deliver, to_coord.popleft)


class InProcessWorkerPool:
    """Synchronous in-process workers: sending a request runs the
    worker's message loop once, inline.  Each worker's machine takes
    the coordinator's ``M``, ``B``, kernel backend and sanitize mode."""

    kind = "inproc"

    def __init__(self, coordinator: "Machine", nshards: int) -> None:
        if nshards < 1:
            raise ValueError("need at least one shard")
        self._ends: list[Endpoint | None] = [
            _inproc_end(coordinator, shard) for shard in range(nshards)
        ]

    @property
    def nshards(self) -> int:
        return len(self._ends)

    def request(self, shard: int, kind: str, payload: object = None) -> Message:
        return _exchange(self._ends[shard], shard, kind, payload)

    def kill(self, shard: int) -> None:
        """Chaos hook: drop ``shard``'s endpoint, leaving its worker and
        machine unreachable, exactly as a crashed process would."""
        self._ends[shard] = None

    def close(self) -> None:
        """Shut every live worker down (idempotent; dead shards skipped)."""
        for shard, end in enumerate(self._ends):
            if end is not None:
                self.request(shard, "shutdown")
                self._ends[shard] = None


def _process_worker_main(
    conn,
    shard: int,
    memory: int,
    block: int,
    kernel: KernelBackend,
    sanitize: bool,
) -> None:  # pragma: no cover - runs in the child process
    worker = ShardWorker(
        shard,
        conn.send,
        conn.recv,
        memory=memory,
        block=block,
        kernel=kernel,
        sanitize=sanitize,
    )
    try:
        worker.run()
    except EOFError:
        pass  # coordinator vanished; nothing left to reply to
    finally:
        conn.close()


class ProcessWorkerPool:
    """One OS process per shard over a duplex pipe.

    The child builds its own :class:`ShardWorker` (machine and all, with
    the coordinator's ``M``, ``B``, kernel backend and sanitize mode)
    and serves the same protocol; replies still carry the worker-side I/O
    envelope, so coordinator-side accounting and metrics are identical
    to the in-process pool.  A dead child surfaces as
    :class:`ShardError` on the next request.
    """

    kind = "process"

    def __init__(self, coordinator: "Machine", nshards: int) -> None:
        if nshards < 1:
            raise ValueError("need at least one shard")
        ctx = multiprocessing.get_context()
        self._procs = []
        self._ends: list[Endpoint | None] = []
        for shard in range(nshards):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_process_worker_main,
                args=(
                    child_conn,
                    shard,
                    coordinator.M,
                    coordinator.B,
                    coordinator.kernel,
                    coordinator.sanitize,
                ),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._ends.append(
                Endpoint(
                    coordinator, shard, "coordinator", parent_conn.send, parent_conn.recv
                )
            )
            self._procs.append(proc)

    @property
    def nshards(self) -> int:
        return len(self._ends)

    def request(self, shard: int, kind: str, payload: object = None) -> Message:
        try:
            return _exchange(self._ends[shard], shard, kind, payload)
        except (EOFError, OSError) as exc:
            self._reap(shard)
            raise ShardError(f"shard {shard} worker died: {exc!r}") from exc

    def kill(self, shard: int) -> None:
        """Chaos hook: hard-kill the shard's process."""
        proc = self._procs[shard]
        if proc is not None:
            proc.terminate()
            proc.join()

    def _reap(self, shard: int) -> None:
        proc = self._procs[shard]
        if proc is not None:
            proc.join(timeout=5)
            self._procs[shard] = None
        self._ends[shard] = None

    def close(self) -> None:
        for shard, end in enumerate(self._ends):
            if end is None:
                continue
            try:
                self.request(shard, "shutdown")
            except ShardError:
                pass  # already dead; just reap below
            self._reap(shard)


#: Pool implementations selectable by name from the CLI / router.
WORKER_KINDS = {
    InProcessWorkerPool.kind: InProcessWorkerPool,
    ProcessWorkerPool.kind: ProcessWorkerPool,
}


def make_pool(kind: str, coordinator: "Machine", nshards: int):
    """Build a worker pool by name (``"inproc"`` or ``"process"``)."""
    try:
        pool_cls = WORKER_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(WORKER_KINDS))
        raise ValueError(f"unknown worker kind {kind!r}; known: {known}") from None
    return pool_cls(coordinator, nshards)
