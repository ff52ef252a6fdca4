"""The coordinator: splitter-based sharding and merged query routing.

:func:`build_sharded_service` samples a top-level splitter set from the
input (phase ``"shard-split"``), carves the file into ``W`` key ranges,
and streams each range to its shard worker as charged messages
(phase ``"shard-ingest"``).  The resulting :class:`ShardRouter` speaks
the same engine protocol as
:class:`~repro.service.online.LazyPartitionIndex` — ``n_live``,
``batch_select``, ``range_count``, ``partition_of`` — so the existing
:class:`~repro.service.frontend.QueryFrontend` sits in front of it
unchanged and the single-machine and sharded paths share all the
query/update/flush code in ``service/``.

Merging per-shard partial answers at the coordinator:

* **selects** — global ranks route to shards through the cumulative
  shard sizes (rank offsets); local answers reassemble in query order.
  Select and range-count answers are determined by the input multiset,
  so they are *element-identical* to the single-machine engine (the
  differential tests assert this).
* **bucket counts** — the paper's K-splitters count whole partitions
  without reading them, and the router closes the two outer ones: the
  ingest pass keeps the input's smallest and largest composite, so the
  shards are ``(E[i], E[i+1]]`` with ``E = (min - 1, *splitters,
  max)``.  ``range_count`` covers the range with them through
  :func:`~repro.service.online.cover_range`, the rule the engine uses
  for its leaves: a range that misses ``[min, max]`` answers 0, every
  shard it spans (an edge shard included) counts from its sealed size
  at the coordinator, and only the (at most two) nonempty shards it
  cuts are asked for a local count.
* ``partition_of`` — the owning shard's local leaf index plus the leaf
  counts of the nonempty shards to its left.  Every reply carries its
  shard's current leaf count, and the router keeps the latest one, so a
  lookup sends one ``part`` request, and none for an empty shard or a
  key outside ``[min, max]`` (its answer is 0 or the owning shard's last
  leaf).  Leaf *structure* depends on refinement history, so this
  (alone) is not asserted identical to the single-machine engine.

Every reply's worker-side I/O envelope feeds the ``svc_shard_io``
per-shard histogram, which works identically for in-process and
process workers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..alg.sampling import approx_quantile_pivots
from ..em.comparisons import cmp_linear, cmp_search
from ..em.errors import SpecError
from ..em.records import (
    KEY_MAX,
    KEY_MIN,
    UID_MAX,
    composite,
    composite_of,
    empty_records,
)
from ..em.streams import scan_chunks
from ..obs.metrics import current_registry
from ..service.online import cover_range
from .transport import Message, ShardError
from .worker import make_pool

if TYPE_CHECKING:  # pragma: no cover
    from ..em.file import EMFile
    from ..em.machine import Machine

__all__ = ["ShardRouter", "build_sharded_service"]


class ShardRouter:
    """Routes engine-protocol queries across shard workers and merges
    the partial answers; construct via :func:`build_sharded_service`."""

    def __init__(
        self,
        machine: "Machine",
        pool,
        splitters: np.ndarray,
        sizes,
        leaves,
        edges: tuple[int, int],
    ) -> None:
        self._machine = machine
        self._pool = pool
        self._splitters = np.asarray(splitters, dtype=np.int64)
        self._sizes = np.asarray(sizes, dtype=np.int64)
        self._cum = np.cumsum(self._sizes)
        self._leaves = np.asarray(leaves, dtype=np.int64)
        # The smallest and largest composite held: shard j holds
        # (E[j], E[j+1]] with E = (lo - 1, *splitters, hi).
        self._lo, self._hi = (int(c) for c in edges)
        # Coordinator-resident routing state: W-1 splitter composites
        # plus W cumulative sizes plus W leaf counts, 3W-1 words =
        # ceil((3W-1)/3) records; the two edge words are left uncharged
        # like the engine's.
        self._resident = machine.memory.lease(
            -(-(3 * len(self._sizes) - 1) // 3), "shard-router-resident"
        ).acquire()
        self._closed = False
        registry = current_registry()
        self._metrics = registry
        self._m_shard_io = registry.histogram(
            "svc_shard_io",
            "per-request worker-side I/O (reads+writes), by shard",
            labels=("shard",),
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def nshards(self) -> int:
        return int(len(self._sizes))

    @property
    def shard_sizes(self) -> np.ndarray:
        """Records per shard, left to right (a copy)."""
        return self._sizes.copy()

    @property
    def splitters(self) -> np.ndarray:
        """The top-level splitter composites (a copy)."""
        return self._splitters.copy()

    def _request(self, shard: int, kind: str, payload: object = None) -> Message:
        reply = self._pool.request(shard, kind, payload)
        reads, writes, _, leaves = reply.io
        self._m_shard_io.labels(shard=shard).observe(int(reads) + int(writes))
        self._leaves[shard] = leaves
        return reply

    # ------------------------------------------------------------------
    # Engine protocol (QueryFrontend sits directly on these)
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return int(self._cum[-1])

    def select(self, rank: int):
        """The record of 1-based global ``rank``."""
        return self.batch_select(np.array([rank], dtype=np.int64))[0]

    def batch_select(self, ranks) -> np.ndarray:
        """Records at the given 1-based global ``ranks`` (aligned).

        Ranks route to shards by rank offset; each shard answers its
        local batch and the coordinator reassembles in query order.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return empty_records(0)
        n = self.n_live
        if n == 0:
            raise SpecError("select on an empty index")
        if ranks.min() < 1 or ranks.max() > n:
            raise SpecError(f"ranks must lie in [1, {n}]")
        with self._machine.phase("shard-route"):
            shard_of = np.searchsorted(self._cum, ranks, side="left")
            cmp_search(self._machine, len(ranks), self.nshards)
        base = self._cum - self._sizes
        out = empty_records(len(ranks))
        for shard in np.unique(shard_of):
            mask = shard_of == shard
            local = ranks[mask] - base[shard]
            reply = self._request(int(shard), "select", local)
            out[mask] = reply.payload
        return out

    def range_count(self, lo_key: int, hi_key: int) -> int:
        """Number of elements with key in ``(lo_key, hi_key]``: the
        sizes of the shards the range spans plus the counts of the
        shards it cuts.

        The shards form a sorted part list with closed outer edges, the
        smallest and largest composite of the input (shard ``i`` holds
        ``(E[i], E[i+1]]`` with ``E = (min - 1, *splitters, max)``), and
        :func:`~repro.service.online.cover_range` covers the range with
        them.  A range that misses ``[min, max]`` answers 0 and a shard
        it spans counts from its sealed size at the coordinator, edge
        shards included.  Only a nonempty shard that the range cuts gets
        a ``range_count`` message: two at most, one when both endpoints
        cut the same shard.  A shard is read-only after ``seal``, so a
        spanned shard's size stays exact even once its worker has died:
        a range covering a killed shard, or reaching past a killed edge
        shard's outer edge, still answers, while a range ending inside
        it raises :class:`ShardError`.  An empty interval ``(k, k]``
        answers 0 without a message.
        """
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        if self._closed:
            raise ShardError("range_count on a closed router")
        if lo_key == hi_key:
            return 0
        lo_c = composite_of(lo_key, UID_MAX)
        hi_c = composite_of(hi_key, UID_MAX)
        with self._machine.phase("shard-route"):
            total, probe = cover_range(
                self._machine, self._splitters, self._cum,
                self._lo, self._hi, lo_c, hi_c,
            )
        for shard in probe:
            reply = self._request(shard, "range_count", (int(lo_key), int(hi_key)))
            total += int(reply.payload)
        return total

    def partition_of(self, key: int) -> int:
        """Global left-to-right leaf index of the leaf containing ``key``:
        the owning shard's local answer offset by the leaf counts of the
        nonempty shards to its left.  Structure-dependent (refinement
        history), unlike selects and range counts.

        The offset comes from the leaf counts the router holds: every
        reply carries its shard's count after handling the request, and
        only a select changes it.  So one ``part`` request answers a
        lookup, and none is sent for an empty shard or a key outside the
        edges: a key whose lowest composite is at or below the smallest
        composite held answers 0, and one above the largest answers its
        shard's last leaf, as the worker would.  A key to the right of a
        killed shard, or past the largest key when the last shard is
        killed, still answers from the held counts; a key inside the
        killed shard raises :class:`ShardError`.
        """
        if self._closed:
            raise ShardError("partition_of on a closed router")
        c = composite_of(int(key), 0)
        with self._machine.phase("shard-route"):
            shard = int(np.searchsorted(self._splitters, c, side="left"))
            cmp_search(self._machine, 1, max(1, len(self._splitters)))
            cmp_linear(self._machine, 2)
        nonempty = self._sizes[:shard] > 0
        leaves_left = int(self._leaves[:shard][nonempty].sum())
        if c <= self._lo or self._sizes[shard] == 0:
            return leaves_left
        if c > self._hi:
            return leaves_left + int(self._leaves[shard]) - 1
        return leaves_left + int(self._request(shard, "part", int(key)).payload)

    # ------------------------------------------------------------------
    # Beyond the engine protocol
    # ------------------------------------------------------------------
    def shard_io_stats(self) -> list[dict]:
        """Each worker's live counter snapshot (reads, writes,
        comparisons, lifetime totals, engine stats) — the balance and
        conservation data the benchmark and tests report."""
        return [
            dict(self._request(shard, "io_stats").payload)
            for shard in range(self.nshards)
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down every worker and release coordinator routing state."""
        if self._closed:
            return
        self._closed = True
        try:
            self._pool.close()
        finally:
            if not self._resident.released:
                self._resident.release()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_sharded_service(
    machine: "Machine",
    file: "EMFile",
    *,
    shards: int,
    k: int,
    workers: str = "inproc",
) -> ShardRouter:
    """Split ``file`` across ``shards`` workers and return the router.

    The input file is read (never modified or freed): one sampling pass
    picks ``shards - 1`` top-level splitters, then one distribution
    pass streams each key range to its worker as charged messages.
    ``k`` is the global leaf-resolution target; each shard gets a
    proportional share (``k_w ~ k * n_w / n``), so per-shard leaves
    match the single-machine engine's ``~n/k`` record target.
    Workers inherit the coordinator's ``M``, ``B``, kernel backend and
    sanitize mode.
    """
    if shards < 1:
        raise SpecError("need at least one shard")
    if k < 1:
        raise SpecError("need k >= 1")
    n = len(file)

    if shards > 1 and n > 0:
        with machine.phase("shard-split"):
            pivots = approx_quantile_pivots(machine, file, shards - 1)
            comps = composite(pivots)
            # Distribution wants strictly increasing pivot composites;
            # duplicates just mean fewer nonempty key ranges.
            if len(comps) > 1:
                keep = np.concatenate(([True], np.diff(comps) > 0))
                comps = comps[keep]
    else:
        comps = np.empty(0, dtype=np.int64)

    pool = make_pool(workers, machine, shards)
    sent = [0] * shards
    # The input's smallest and largest composite, the router's closed
    # edges; an empty input leaves them crossed, with every shard empty.
    lo, hi = composite_of(KEY_MAX, UID_MAX), composite_of(KEY_MIN, 0)
    try:
        kernel = machine.kernel
        with machine.phase("shard-ingest"):
            with scan_chunks(file, machine.load_limit, "shard-ingest-in") as chunks:
                for chunk in chunks:
                    if len(chunk) == 0:
                        continue
                    chunk_c = composite(chunk)
                    cmp_linear(machine, 2 * len(chunk))
                    lo = min(lo, int(chunk_c.min()))
                    hi = max(hi, int(chunk_c.max()))
                    if len(comps):
                        idx = kernel.bucket_of(chunk, comps)
                        cmp_search(machine, len(chunk), len(comps))
                        groups = kernel.group_by_bucket(chunk, idx)
                    else:
                        groups = [(0, chunk)]
                    for bucket, group in groups:
                        pool.request(bucket, "ingest", group)
                        sent[bucket] += len(group)
        sizes, leaves = [], []
        for shard in range(shards):
            k_w = max(1, round(k * sent[shard] / n)) if n else 1
            reply = pool.request(shard, "seal", k_w)
            sizes.append(int(reply.payload))
            leaves.append(reply.io[3])
    except BaseException:
        try:
            pool.close()
        except ShardError:
            pass  # a worker already failed; surface the original error
        raise
    if sum(sizes) != n:
        try:
            pool.close()
        except ShardError:
            pass
        raise ShardError(
            f"sharded ingest lost records: sent {n}, sealed {sum(sizes)}"
        )
    return ShardRouter(machine, pool, comps, sizes, leaves, (lo, hi))
