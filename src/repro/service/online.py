"""The sorted leaf list, its one query path, and lazy online refinement.

Both service engines keep the paper's K-partitioning as one sorted list
of leaves (:class:`_Leaf`): leaf ``j`` holds the composites in
``(bounds[j-1], bounds[j]]``, and the two outer edges are closed by the
smallest and largest composite the list may hold (two words, starting
at the ends of the composite domain and tightened by scans of the edge
leaves).  :class:`LazyPartitionIndex` answers every query over it for
both engines; the eager :class:`~repro.service.index.PartitionIndex` is
the same list built to K leaves up front that also takes updates, and
inherits every query.  A range count covers its range with the leaves
through :func:`cover_range`, as the paper's splitters count whole
partitions from their sizes: a range outside the data costs nothing,
an edge leaf it spans counts from its size, and only the (at most two)
leaves it cuts are scanned.  The shard router applies the same rule to
its shards.

Barbay–Gupta's observation ("Near-Optimal Online Multiselection in
Internal and External Memory") is that an *online* sequence of selection
queries need not pay for a full splitter construction up front: keep the
pivots found so far, which cut the file into a sorted run of leaves, and
refine a leaf — one sampling pass plus one distribution pass over just
that leaf — only when a query actually lands in it.  Refinements stay in
the pivot set, so

* a *skewed* (zipfian) trace touches few regions and repeats them: total
  I/O stays near the cost of refining the hot paths once, approaching
  ``O((N/B)·log(K/B))`` for the whole trace rather than per query;
* a *uniform or adversarial* trace eventually refines everything, and
  the total approaches (but never exceeds by more than a constant) the
  offline splitter construction — laziness costs nothing
  asymptotically.

:class:`LazyPartitionIndex` implements this over
:func:`~repro.alg.sampling.approx_quantile_pivots` (sampling) and
:func:`~repro.alg.distribute.distribute_by_pivots` (one-pass f-way
distribution); a refinement splices a leaf's children and pivots into
place.  The underlying file is never mutated or freed; answered ranks
are memoized in a bounded in-memory cache so repeated hot queries cost
zero I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_search
from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.records import (
    KEY_MAX,
    KEY_MIN,
    UID_MAX,
    composite,
    composite_of,
    empty_records,
)
from ..em.streams import scan_chunks
from ..alg.inmemory import select_at_ranks
from ..alg.sampling import approx_quantile_pivots, max_distribution_fanout
from ..alg.distribute import distribute_by_pivots
from ..apps.order_stats import rank_of_fraction
from ..core.multiselect import multi_select
from ..obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["LazyPartitionIndex", "cover_range"]

#: The ends of the composite domain: where an engine's edges start,
#: since they bound every composite before anything is known.
_LO_END = composite_of(KEY_MIN, 0)
_HI_END = composite_of(KEY_MAX, UID_MAX)


def cover_range(
    machine: "Machine", bounds, cum, lo: int, hi: int, lo_c: int, hi_c: int
) -> tuple[int, list[int]]:
    """Cover ``(lo_c, hi_c]`` with the parts of a closed sorted list.

    Part ``j`` holds the composites in ``(E[j], E[j+1]]``, where ``E =
    (lo - 1, *bounds, hi)`` and ``lo``/``hi`` bound every composite the
    parts hold; ``cum[j]`` counts the records of parts ``0..j``.
    Returns the records of the parts the range spans, counted from
    their sizes, and the nonempty parts it cuts (at most two,
    ascending), which the caller probes.  A range that misses ``[lo,
    hi]`` spans and cuts nothing.  The engine scans the cut leaves, the
    router messages the cut shards.  Composites are Python ints, so
    keys beyond the record domain compare exactly.
    """
    cmp_linear(machine, 2)
    if hi_c < lo or lo_c >= hi:
        return 0, []
    first = int(np.searchsorted(bounds, lo_c, side="right"))
    last = int(np.searchsorted(bounds, hi_c, side="left"))
    cmp_search(machine, 2, max(1, len(bounds)))
    cmp_linear(machine, 2)
    below = lo - 1 if first == 0 else int(bounds[first - 1])
    above = hi if last == len(bounds) else int(bounds[last])
    spanned = int(cum[last]) - (int(cum[first - 1]) if first else 0)
    cut = set()
    if below < lo_c:
        cut.add(first)
    if above > hi_c:
        cut.add(last)
    probe = []
    for j in sorted(cut):
        size = int(cum[j]) - (int(cum[j - 1]) if j else 0)
        spanned -= size
        if size:
            probe.append(j)
    return spanned, probe


class _Leaf:
    """One leaf of the sorted list: disk segments plus in-memory tombstones.

    ``stored`` counts records on disk including tombstoned ones; ``live``
    is the leaf's logical size.  Tombstones are the composites of deleted
    records, applied lazily at the leaf's next compaction.  A lazy leaf
    is one segment with no tombstones; an eager leaf gains overflow
    segments from appends and tombstones from deletes.
    """

    __slots__ = ("segments", "stored", "tombstones")

    def __init__(self, segments: list[EMFile], stored: int, tombstones=None):
        self.segments = segments
        self.stored = stored
        self.tombstones: set[int] = tombstones if tombstones is not None else set()

    @property
    def live(self) -> int:
        return self.stored - len(self.tombstones)

    @property
    def footprint(self) -> int:
        """Buffer records needed to load the leaf (whole blocks)."""
        segs = self.segments
        return segs[0].machine.B * sum(s.num_blocks for s in segs) if segs else 0

    def tomb_array(self) -> np.ndarray:
        """The tombstones as a sorted array."""
        tombs = self.tombstones
        return np.sort(np.fromiter(tombs, dtype=np.int64, count=len(tombs)))

    def read(self) -> np.ndarray:
        """Counted read of every segment into memory, in one batch
        (caller holds the lease); tombstoned records included."""
        return read_runs(self.segments)


class LazyPartitionIndex:
    """Read-only online selection engine over one :class:`EMFile`, and
    the query path :class:`~repro.service.index.PartitionIndex` inherits.

    Parameters
    ----------
    machine, file:
        The machine and the (unsorted) input file.  The file is never
        modified or freed; refined copies of its regions are owned by
        the engine and released by :meth:`close`.
    k:
        Target resolution: leaves aim at ``~N/k`` records (like a
        K-partition index built fully).

    The leaves are one sorted list: ``_leaves[j]`` holds the composites
    in ``(_bounds[j-1], _bounds[j]]`` and ``_cum[j]`` counts the live
    records in leaves ``0..j``.  Bounds are non-decreasing, not strictly
    increasing: a refinement pivot can equal its leaf's upper bound and
    leave an empty last child.  Answered ranks are memoized (bounded,
    charged to the resident lease), so repeats cost zero I/O.
    """

    def __init__(
        self,
        machine: "Machine",
        file: EMFile,
        k: int,
    ) -> None:
        if k < 1:
            raise SpecError("need k >= 1")
        self._open(machine, "lazy")
        n = len(file)
        self._input = file
        self._leaves = [_Leaf([file], n)]
        self._cum = np.array([n], dtype=np.int64)
        self._fanout = max_distribution_fanout(machine)
        self._leaf_target = max(machine.B, -(-n // int(k)))
        self._resident_records = 0
        self._m_refinements = self._metrics.counter(
            "svc_refinements", "lazy leaf refinements"
        )

    def _open(self, machine: "Machine", engine: str) -> None:
        """Set up what every query reads: an empty leaf list, the answer
        cache, the resident lease and the query telemetry."""
        self._machine = machine
        self._input: EMFile | None = None
        self._leaves: list[_Leaf] = []
        self._bounds = np.empty(0, dtype=np.int64)
        self._cum = np.zeros(1, dtype=np.int64)
        # The closed outer edges: every live composite lies in [_lo, _hi].
        # They start at the domain ends and tighten as scans of the edge
        # leaves see their records; two words, uncharged like
        # _leaf_target.
        self._lo = _LO_END
        self._hi = _HI_END
        self._cache: dict[int, np.void] = {}
        self._cache_cap = max(machine.B, machine.M // 8)
        self._resident = machine.memory.lease(0, "svc-resident").acquire()
        self._closed = False
        self.stats = {"refinements": 0, "leaf_loads": 0, "cache_hits": 0}
        # Telemetry: bound to the ambient registry at construction; all
        # bookkeeping is plain Python over lifetime counters the model
        # already maintains, so no EM charge ever flows through here.
        metrics = self._metrics = current_registry()
        self._m_query_io = metrics.histogram(
            "svc_query_io",
            "per-query attributed simulated I/O (block transfers)",
            labels=("engine",),
        ).labels(engine=engine)
        lookups = metrics.counter(
            "svc_cache_lookups",
            "answer-cache lookups by result",
            labels=("result",),
        )
        self._m_cache_hit = lookups.labels(result="hit")
        self._m_cache_miss = lookups.labels(result="miss")
        self._m_leaf_loads = metrics.counter(
            "svc_leaf_loads", "leaf loads answering uncached queries"
        )

    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return int(self._cum[-1])

    @property
    def n_leaves(self) -> int:
        """Current number of leaves (zero I/O); grows as queries force
        refinement."""
        return len(self._leaves)

    def _flush(self) -> dict | None:
        """Apply buffered updates before a query; the read-only engine
        buffers none."""
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, rank: int):
        """The record of 1-based ``rank``, refining lazily on the way."""
        return self.batch_select(np.array([rank], dtype=np.int64))[0]

    def quantile(self, q: float):
        """The record at the ``q``-quantile (nearest rank)."""
        self._check_open("quantile")
        self._flush()
        n = self.n_live
        if n == 0:
            raise SpecError("quantile of an empty index")
        return self.select(rank_of_fraction(n, q))

    def batch_select(self, ranks) -> np.ndarray:
        """Records at the given 1-based ``ranks`` (aligned; duplicates OK).

        Distinct ranks sharing a leaf share one leaf load; cached ranks
        cost zero I/O.
        """
        self._check_open("select")
        self._flush()
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size == 0:
            return empty_records(0)
        n = self.n_live
        if n == 0:
            raise SpecError("select on an empty index")
        if ranks.min() < 1 or ranks.max() > n:
            raise SpecError(f"ranks must lie in [1, {n}]")
        unique, inverse = np.unique(ranks, return_inverse=True)
        dup = np.bincount(inverse, minlength=len(unique))
        out = empty_records(len(unique))
        pending: list[tuple[int, int]] = []
        for pos, rank in enumerate(unique.tolist()):
            if rank in self._cache:
                out[pos] = self._cache[rank]
                self.stats["cache_hits"] += 1
                self._m_cache_hit.inc(int(dup[pos]))
                self._m_query_io.observe(0, count=int(dup[pos]))
            else:
                pending.append((rank, pos))
                self._m_cache_miss.inc(int(dup[pos]))
        # Unique ranks are sorted, so the ranks sharing a leaf are
        # consecutive: find the first uncovered rank's leaf (refining it
        # lazily against the *current* memory headroom), then sweep up
        # every following rank inside that leaf's range.
        i = 0
        while i < len(pending):
            rank, pos = pending[i]
            io_base = self._life_io()
            leaf = self._leaf_of_rank(rank)
            below = int(self._cum[leaf - 1]) if leaf else 0
            top = int(self._cum[leaf])  # leaf covers global ranks (below, top]
            locals_ = [rank - below]
            positions = [pos]
            j = i + 1
            while j < len(pending) and pending[j][0] <= top:
                locals_.append(pending[j][0] - below)
                positions.append(pending[j][1])
                j += 1
            answers = self._leaf_select(leaf, np.array(locals_, dtype=np.int64))
            cached = len(self._cache)
            for p, rec in zip(positions, answers):
                out[p] = rec
                if len(self._cache) < self._cache_cap:
                    self._cache[int(unique[p])] = rec
            # Only the cache grew since the lease was last sized: grow the
            # lease by the new answers rather than re-sum the control state.
            self._resident.resize(self._resident.size + len(self._cache) - cached)
            # Attribute this group's I/O evenly across the queries it
            # served (duplicates included): observations sum back to the
            # exact lifetime delta, so the histogram conserves totals.
            served = int(sum(dup[p] for p in positions))
            spent = self._life_io() - io_base
            self._m_query_io.observe(spent / served, count=served)
            i = j
        return out[inverse]

    def range_count(self, lo_key: int, hi_key: int) -> int:
        """Number of live elements with key in ``(lo_key, hi_key]``.

        The leaf list's outer edges are closed at ``_lo`` and ``_hi``,
        the smallest and largest composite it may hold, so
        :func:`cover_range` gives the count: a range that misses
        ``[_lo, _hi]`` answers 0, every leaf it spans (an edge leaf
        included) counts from its size, and only the (at most two)
        nonempty leaves it cuts are scanned, streaming, with no
        refinement forced.  The edges start at the ends of the composite
        domain; a scan of the first or last leaf tightens them to the
        composites it saw.  An empty interval ``(k, k]`` costs nothing.
        """
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        self._check_open("range_count")
        self._flush()
        if lo_key == hi_key:
            return 0
        m = self._machine
        lo_c = composite_of(lo_key, UID_MAX)
        hi_c = composite_of(hi_key, UID_MAX)
        with m.phase("svc-range"):
            total, probe = cover_range(
                m, self._bounds, self._cum, self._lo, self._hi, lo_c, hi_c
            )
            for leaf in probe:
                total += self._scan_count(leaf, lo_c, hi_c)
            return total

    def partition_of(self, key: int) -> int:
        """Index (in left-to-right leaf order) of the first leaf whose
        range may contain ``key`` — zero I/O, no refinement."""
        self._check_open("partition_of")
        self._flush()
        leaf = int(np.searchsorted(self._bounds, composite_of(key, 0), side="left"))
        cmp_search(self._machine, 1, max(1, len(self._bounds)))
        return leaf

    def _check_open(self, query: str) -> None:
        """Raise unless the engine is open: a closed one holds no leaves,
        so any answer it gave would be wrong."""
        if self._closed:
            raise SpecError(f"{query} on a closed index")

    # ------------------------------------------------------------------
    # Leaf mechanics
    # ------------------------------------------------------------------
    def _leaf_of_rank(self, rank: int) -> int:
        """Index of the leaf holding global ``rank``, refining that leaf
        until it is small enough to load."""
        while True:
            leaf = int(np.searchsorted(self._cum, rank, side="left"))
            cmp_search(self._machine, 1, len(self._cum))
            if self._leaves[leaf].stored <= self._leaf_limit():
                return leaf
            self._refine(leaf)

    def _leaf_limit(self) -> int:
        """A leaf must satisfy the target *and* fit in memory right now.

        One block of slack covers the block-rounding of the load buffer
        (a leaf is read in whole blocks, so its footprint can exceed its
        record count by up to ``B - 1``).  Cached answers count as free
        headroom — they are evicted on demand by :meth:`_make_room` —
        otherwise a full cache would shrink the effective leaf size,
        forcing re-refinement of already-fine leaves whose metadata
        shrinks it further (a feedback spiral down to deadlock).
        """
        m = self._machine
        return max(m.B, min(self._leaf_target, self._headroom() - m.B))

    def _headroom(self) -> int:
        """Records a leaf load may take now: cached answers count, since
        :meth:`_make_room` evicts them on demand."""
        return self._machine.load_limit + len(self._cache)

    def _make_room(self, needed: int) -> None:
        """Evict cached answers (oldest first) until ``needed`` records
        of machine memory are available (or the cache is empty).

        The cache is a pure optimization charged to the resident lease;
        correctness work — refinement passes, leaf loads — reclaims it
        under memory pressure.
        """
        cache = self._cache
        if not cache:
            return
        short = needed - self._machine.memory.available
        if short <= 0:
            return
        for key in list(cache.keys())[: min(len(cache), short)]:
            del cache[key]
        self._sync_resident()

    def _refine(self, leaf: int) -> None:
        """Split one oversized leaf (sample pivots, distribute once) and
        splice its children and pivots into the list in its place."""
        m = self._machine
        file = self._leaves[leaf].segments[0]
        size = len(file)
        self._make_room(min(file.num_blocks + self._fanout + 2, m.M // m.B) * m.B)
        with m.phase("svc-refine"):
            want = min(self._fanout - 1, max(1, -(-size // self._leaf_target) - 1))
            pivots = approx_quantile_pivots(m, file, want)
            comps = composite(pivots)
            if len(comps) > 1:
                keep = np.concatenate(([True], np.diff(comps) > 0))
                pivots = pivots[keep]
            if len(pivots) == 0:
                raise AssertionError(
                    f"refinement found no pivots for a leaf of {size} records"
                )
            children = distribute_by_pivots(m, file, pivots, "svc-refine")
        if file is not self._input:
            file.free()
        below = self._cum[leaf] - size
        self._leaves[leaf : leaf + 1] = [_Leaf([c], len(c)) for c in children]
        self._cum = np.concatenate(
            (
                self._cum[:leaf],
                below + np.cumsum([len(c) for c in children], dtype=np.int64),
                self._cum[leaf + 1 :],
            )
        )
        self._bounds = np.concatenate(
            (self._bounds[:leaf], composite(pivots), self._bounds[leaf:])
        )
        # Resident charge for the refinement's routing metadata: f-1
        # pivot composites plus f child sizes, one int64 each — a record
        # is three int64s, so charge (2f-1)/3 records, rounded up.
        self._resident_records += -(-(2 * len(children) - 1) // 3)
        self.stats["refinements"] += 1
        self._m_refinements.inc()
        self._sync_resident()

    def _leaf_select(self, leaf: int, local_ranks: np.ndarray) -> np.ndarray:
        """Load one leaf and answer all its local ranks in memory."""
        m = self._machine
        part = self._leaves[leaf]
        with m.phase("svc-leaf"):
            footprint = part.footprint
            if footprint > self._headroom():
                # An eager partition too big even when compacted: its
                # window allows b records, and once b nears M the
                # resident state leaves too little room (b = M at the
                # churn benchmark's sizes).  External multi-selection on
                # its one segment, with the whole memory back from the
                # cache.
                self._make_room(m.M)
                return np.asarray(multi_select(m, part.segments[0], local_ranks))
            self._make_room(footprint)
            with m.memory.lease(footprint, "svc-leaf-load"):
                recs = part.read()
                if part.tombstones:
                    recs = self._drop_tombstoned(recs, part.tomb_array())
                self.stats["leaf_loads"] += 1
                self._m_leaf_loads.inc()
                return select_at_ranks(m, recs, local_ranks)

    def _drop_tombstoned(
        self, recs: np.ndarray, tomb: np.ndarray, step: int = 0
    ) -> np.ndarray:
        """``recs`` minus the records whose composites are in ``tomb`` (a
        leaf's sorted tombstones); leaf loads and compaction streams
        share this filter.  The searches are charged in one call, or in
        one call per ``step`` records: a compaction chunk is charged
        block by block, as a one-block scan is (each charge rounds up)."""
        if not len(tomb):
            return recs
        comps = composite(recs)
        step = step or max(1, len(recs))
        for start in range(0, len(recs), step):
            cmp_search(self._machine, min(step, len(recs) - start), len(tomb))
        pos = np.minimum(np.searchsorted(tomb, comps), len(tomb) - 1)
        return recs[tomb[pos] != comps]

    def _scan_count(self, leaf: int, lo_c: int, hi_c: int) -> int:
        """Live elements of ``leaf`` with composite in ``(lo_c, hi_c]``,
        by one streaming scan.

        A scan of the first or last leaf whose edge is still at the
        domain end also learns that edge from the composites it sees
        (tombstoned records included, which still bound the live ones).
        """
        m = self._machine
        part = self._leaves[leaf]
        want_lo = leaf == 0 and self._lo == _LO_END
        want_hi = leaf == len(self._leaves) - 1 and self._hi == _HI_END
        lows, highs = [], []
        count = 0
        with scan_chunks(part.segments, m.load_limit, "svc-range-scan") as chunks:
            for chunk in chunks:
                cmp_linear(m, (2 + want_lo + want_hi) * len(chunk))
                comps = composite(chunk)
                count += int(((comps > lo_c) & (comps <= hi_c)).sum())
                if want_lo:
                    lows.append(int(comps.min()))
                if want_hi:
                    highs.append(int(comps.max()))
        if lows:
            self._lo = max(self._lo, min(lows))
        if highs:
            self._hi = min(self._hi, max(highs))
        if part.tombstones:
            tomb = part.tomb_array()
            cmp_search(m, 2, len(tomb))
            dead = np.searchsorted(tomb, [lo_c, hi_c], side="right")
            count -= int(dead[1] - dead[0])
        return count

    # ------------------------------------------------------------------
    # Accounting / lifecycle
    # ------------------------------------------------------------------
    def _life_io(self) -> int:
        """Lifetime I/O total — the metrics attribution baseline.

        Lifetime counters are public and survive ``reset_counters``, so
        reading them here charges nothing to the model (same contract
        the tracer's conservation check relies on).
        """
        life = self._machine.disk.lifetime
        return life.reads + life.writes

    def _resident_total(self) -> int:
        """Records of control state held resident, cached answers aside:
        the refinements' routing metadata."""
        return self._resident_records

    def _sync_resident(self) -> None:
        """Size the resident lease to the control state and cached
        answers actually held."""
        self._resident.resize(self._resident_total() + len(self._cache))

    def abandon(self) -> None:
        """Drop the leaf list without freeing disk (simulated process death).

        Every lease is released — memory vanishes with the process — but
        every leaf's blocks stay allocated.  The lazy engine is
        read-only: its durable state *is* the input file, so a new
        engine over the same file answers identically (refinement
        copies owned by the dead engine become unreachable blocks — the
        documented cost of crashing a cache).  A durable eager index
        reaches its blocks again through its manifest.  The engine then
        holds no records.
        """
        if self._closed:
            return
        self._leaves = []
        self._cum = np.zeros(1, dtype=np.int64)
        self._bounds = np.empty(0, dtype=np.int64)
        self._cache = {}
        if not self._resident.released:
            self._resident.release()
        self._closed = True

    def close(self) -> None:
        """Free every owned leaf segment, then drop the list as
        :meth:`abandon` does."""
        if self._closed:
            return
        for leaf in self._leaves:
            for seg in leaf.segments:
                if seg is not self._input:
                    seg.free()
        self.abandon()

    def __enter__(self) -> "LazyPartitionIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
