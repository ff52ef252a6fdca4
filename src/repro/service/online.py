"""Lazy online multiselection: refine the sorted pivot set only where queried.

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
distribution).  Its leaves form one flat list, the layout
:class:`~repro.service.index.PartitionIndex` keeps: leaf ``j`` holds the
composites in ``(bounds[j-1], bounds[j]]``, open at both ends of the
list, and a refinement splices a leaf's children and pivots into place.
The underlying file is never mutated or freed; answered ranks are
memoized in a bounded in-memory cache so repeated hot queries cost zero
I/O.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_search
from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import UID_MAX, composite, composite_of, empty_records
from ..em.streams import BlockReader
from ..alg.inmemory import select_at_ranks
from ..alg.sampling import approx_quantile_pivots, max_distribution_fanout
from ..alg.distribute import distribute_by_pivots
from ..apps.order_stats import rank_of_fraction
from ..obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["LazyPartitionIndex"]


class LazyPartitionIndex:
    """Read-only online selection engine over one :class:`EMFile`.

    Parameters
    ----------
    machine, file:
        The machine and the (unsorted) input file.  The file is never
        modified or freed; refined copies of its regions are owned by
        the engine and released by :meth:`close`.
    k:
        Target resolution: leaves aim at ``~N/k`` records (like a
        K-partition index built fully).  Defaults to whatever fits one
        in-memory load.

    The leaves are one sorted list: ``_files[j]`` holds the composites
    in ``(_bounds[j-1], _bounds[j]]`` and ``_cum[j]`` counts the records
    in leaves ``0..j``.  Bounds are non-decreasing, not strictly
    increasing: a refinement pivot can equal its leaf's upper bound and
    leave an empty last child.  Answered ranks are memoized (bounded,
    charged to the resident lease), so repeats cost zero I/O.
    """

    def __init__(
        self,
        machine: "Machine",
        file: EMFile,
        k: int | None = None,
    ) -> None:
        n = len(file)
        self._machine = machine
        self._input = file
        self._files: list[EMFile] = [file]
        self._cum = np.array([n], dtype=np.int64)
        self._bounds = np.empty(0, dtype=np.int64)
        self._fanout = max_distribution_fanout(machine)
        if k is None:
            leaf = machine.load_limit
        else:
            if k < 1:
                raise SpecError("need k >= 1")
            leaf = max(machine.B, -(-n // int(k)))
        self._leaf_target = max(machine.B, leaf)
        self._cache: dict[int, np.void] = {}
        self._cache_cap = max(machine.B, machine.M // 8)
        self._resident = machine.memory.lease(0, "svc-lazy-resident")
        self._resident_records = 0
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
        ).labels(engine="lazy")
        lookups = metrics.counter(
            "svc_cache_lookups",
            "answer-cache lookups by result",
            labels=("result",),
        )
        self._m_cache_hit = lookups.labels(result="hit")
        self._m_cache_miss = lookups.labels(result="miss")
        self._m_refinements = metrics.counter(
            "svc_refinements", "lazy leaf refinements"
        )
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
        return len(self._files)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def select(self, rank: int):
        """The record of 1-based ``rank``, refining lazily on the way."""
        return self.batch_select(np.array([rank], dtype=np.int64))[0]

    def quantile(self, q: float):
        """The record at the ``q``-quantile (nearest rank)."""
        if self.n_live == 0:
            raise SpecError("quantile of an empty index")
        return self.select(rank_of_fraction(self.n_live, q))

    def batch_select(self, ranks) -> np.ndarray:
        """Records at the given 1-based ``ranks`` (aligned; duplicates OK).

        Distinct ranks sharing a leaf share one leaf load; cached ranks
        cost zero I/O.
        """
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
        for pos, rank in enumerate(unique):
            if int(rank) in self._cache:
                out[pos] = self._cache[int(rank)]
                self.stats["cache_hits"] += 1
                self._m_cache_hit.inc(int(dup[pos]))
                self._m_query_io.observe(0, count=int(dup[pos]))
            else:
                pending.append((int(rank), pos))
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
            for p, rec in zip(positions, answers):
                out[p] = rec
                if len(self._cache) < self._cache_cap:
                    self._cache[int(unique[p])] = rec.copy()
            self._sync_resident()
            # Attribute this group's I/O evenly across the queries it
            # served (duplicates included): observations sum back to the
            # exact lifetime delta, so the histogram conserves totals.
            served = int(sum(dup[p] for p in positions))
            spent = self._life_io() - io_base
            self._m_query_io.observe(spent / served, count=served)
            i = j
        return out[inverse]

    def range_count(self, lo_key: int, hi_key: int) -> int:
        """Number of elements with key in ``(lo_key, hi_key]``.

        Both endpoints route through the bounds to their leaves; the
        leaves strictly between count from their sizes, and only the
        (at most two) boundary leaves are scanned (streaming, no
        refinement forced).
        """
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        if self.n_live == 0:
            return 0
        m = self._machine
        lo_c = composite_of(lo_key, UID_MAX)
        hi_c = composite_of(hi_key, UID_MAX)
        with m.phase("svc-range"):
            first = int(np.searchsorted(self._bounds, lo_c, side="right"))
            last = int(np.searchsorted(self._bounds, hi_c, side="left"))
            cmp_search(m, 2, max(1, len(self._bounds)))
            total = int(self._cum[last - 1] - self._cum[first]) if last > first else 0
            for leaf in sorted({first, last}):
                total += self._scan_count(leaf, lo_c, hi_c)
            return total

    def partition_of(self, key: int) -> int:
        """Index (in left-to-right leaf order) of the current leaf whose
        range contains ``key`` — zero I/O, no refinement."""
        if self._closed:
            raise SpecError("partition_of on a closed index")
        leaf = int(np.searchsorted(self._bounds, composite_of(key, 0), side="left"))
        cmp_search(self._machine, 1, max(1, len(self._bounds)))
        return leaf

    # ------------------------------------------------------------------
    # Leaf mechanics
    # ------------------------------------------------------------------
    def _leaf_of_rank(self, rank: int) -> int:
        """Index of the leaf holding global ``rank``, refining that leaf
        until it is small enough to load."""
        while True:
            leaf = int(np.searchsorted(self._cum, rank, side="left"))
            cmp_search(self._machine, 1, len(self._cum))
            if len(self._files[leaf]) <= self._leaf_limit():
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
        headroom = m.load_limit + self._evictable() - m.B
        return max(m.B, min(self._leaf_target, headroom))

    def _evictable(self) -> int:
        return len(self._cache)

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
        file = self._files[leaf]
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
        self._files[leaf : leaf + 1] = children
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
        file = self._files[leaf]
        with m.phase("svc-leaf"):
            footprint = file.num_blocks * m.B
            self._make_room(footprint)
            with m.memory.lease(footprint, "svc-leaf-load"):
                recs = file.read_range(0, file.num_blocks)
                self.stats["leaf_loads"] += 1
                self._m_leaf_loads.inc()
                return select_at_ranks(m, recs, local_ranks)

    def _scan_count(self, leaf: int, lo_c: int, hi_c: int) -> int:
        """Elements of ``leaf`` with composite in ``(lo_c, hi_c]``, by one
        streaming scan."""
        m = self._machine
        count = 0
        with BlockReader(self._files[leaf], "svc-range-scan") as reader:
            for block in reader:
                cmp_linear(m, 2 * len(block))
                comps = composite(block)
                count += int(((comps > lo_c) & (comps <= hi_c)).sum())
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

    def _sync_resident(self) -> None:
        self._resident.resize(self._resident_records + len(self._cache))

    def abandon(self) -> None:
        """Drop the leaf list without freeing disk (simulated process death).

        The lazy engine is read-only: its durable state *is* the input
        file, which survives on disk untouched.  After a crash a new
        engine over the same file answers identically (refinement
        copies owned by the dead engine become unreachable blocks — the
        documented cost of crashing a cache).  The engine then holds no
        records.
        """
        if self._closed:
            return
        self._files = []
        self._cum = np.zeros(1, dtype=np.int64)
        self._bounds = np.empty(0, dtype=np.int64)
        self._cache = {}
        if not self._resident.released:
            self._resident.release()
        self._closed = True

    def close(self) -> None:
        """Free every owned leaf file, then drop the list as :meth:`abandon`
        does."""
        if self._closed:
            return
        for file in self._files:
            if file is not self._input:
                file.free()
        self.abandon()

    def __enter__(self) -> "LazyPartitionIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
