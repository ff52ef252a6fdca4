"""Lazy online multiselection: refine the pivot tree only where queried.

Barbay–Gupta's observation ("Near-Optimal Online Multiselection in
Internal and External Memory") is that an *online* sequence of selection
queries need not pay for a full splitter construction up front: keep the
file behind a pivot tree and refine a node — one sampling pass plus one
distribution pass over just that node — only when a query actually lands
in it.  Refinements are cached in the tree, so

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
distribution).  The tree is read-only with respect to the underlying
file (never mutated, never freed); answered ranks are memoized in a
bounded in-memory cache so repeated hot queries cost zero I/O.
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


class _LazyNode:
    """One pivot-tree node covering a contiguous composite range.

    A leaf holds a file (``owned`` unless it is the caller's input at
    the root); an internal node holds its children plus the pivot
    composites and cumulative child sizes that route ranks down.
    """

    __slots__ = ("file", "owned", "size", "pivots", "cum", "children")

    def __init__(self, file: EMFile | None, owned: bool, size: int):
        self.file = file
        self.owned = owned
        self.size = size
        self.pivots: np.ndarray | None = None
        self.cum: np.ndarray | None = None
        self.children: list["_LazyNode"] | None = None


class LazyPartitionIndex:
    """Read-only online selection engine over one :class:`EMFile`.

    Parameters
    ----------
    machine, file:
        The machine and the (unsorted) input file.  The file is never
        modified or freed; refined copies of its regions are owned by
        the tree and released by :meth:`close`.
    k:
        Target resolution: leaves aim at ``~N/k`` records (like a
        K-partition index built fully).  Defaults to whatever fits one
        in-memory load.

    Answered ranks are memoized (bounded, charged to the resident
    lease), so repeats cost zero I/O.
    """

    def __init__(
        self,
        machine: "Machine",
        file: EMFile,
        k: int | None = None,
    ) -> None:
        n = len(file)
        self._machine = machine
        self._root = _LazyNode(file, owned=False, size=n)
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
        self._m_depth = metrics.histogram(
            "svc_descend_depth",
            "pivot-tree descent depth per uncached query group",
        )
        lookups = metrics.counter(
            "svc_cache_lookups",
            "answer-cache lookups by result",
            labels=("result",),
        )
        self._m_cache_hit = lookups.labels(result="hit")
        self._m_cache_miss = lookups.labels(result="miss")
        self._m_refinements = metrics.counter(
            "svc_refinements", "lazy pivot-tree node refinements"
        )
        self._m_leaf_loads = metrics.counter(
            "svc_leaf_loads", "leaf loads answering uncached queries"
        )

    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        return self._root.size

    @property
    def n_leaves(self) -> int:
        """Current number of leaves in the lazy tree (zero I/O).

        Grows as queries force refinement; the sharded router uses it to
        offset local :meth:`partition_of` answers into a global
        left-to-right leaf order."""
        return self._leaf_count(self._root)

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
        # consecutive: descend to the first uncovered rank's leaf (the
        # descent refines lazily against the *current* memory headroom),
        # then sweep up every following rank inside that leaf's range.
        i = 0
        while i < len(pending):
            rank, pos = pending[i]
            io_base = self._life_io()
            leaf, local = self._descend(rank)
            below = rank - local  # leaf covers global ranks (below, below+size]
            locals_ = [local]
            positions = [pos]
            j = i + 1
            while j < len(pending) and pending[j][0] <= below + leaf.size:
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

        Fully covered subtrees are counted from node sizes; partially
        covered leaves are scanned (streaming, no refinement forced).
        """
        if hi_key < lo_key:
            raise SpecError("empty range: hi_key < lo_key")
        if self.n_live == 0:
            return 0
        lo_c = composite_of(lo_key, UID_MAX)
        hi_c = composite_of(hi_key, UID_MAX)
        with self._machine.phase("svc-range"):
            return self._count(self._root, lo_c, hi_c, None, None)

    def partition_of(self, key: int) -> int:
        """Index (in left-to-right leaf order) of the current leaf whose
        range contains ``key`` — zero I/O, no refinement."""
        if self._closed:
            raise SpecError("partition_of on a closed index")
        c = composite_of(key, 0)
        node = self._root
        leaves_left = 0
        while node.children is not None:
            i = int(np.searchsorted(node.pivots, c, side="left"))
            cmp_search(self._machine, 1, max(1, len(node.pivots)))
            for child in node.children[:i]:
                leaves_left += self._leaf_count(child)
            node = node.children[i]
        return leaves_left

    # ------------------------------------------------------------------
    # Tree mechanics
    # ------------------------------------------------------------------
    def _descend(self, rank: int) -> tuple[_LazyNode, int]:
        """Walk ``rank`` down to a small-enough leaf, refining as needed."""
        m = self._machine
        node = self._root
        local = rank
        depth = 0
        while True:
            if node.children is None:
                if node.size > self._leaf_limit():
                    self._refine(node)
                    continue
                self._m_depth.observe(depth)
                return node, local
            i = int(np.searchsorted(node.cum, local, side="left"))
            cmp_search(m, 1, max(1, len(node.cum)))
            if i > 0:
                local -= int(node.cum[i - 1])
            node = node.children[i]
            depth += 1

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

    def _refine(self, node: _LazyNode) -> None:
        """Split one oversized leaf: sample pivots, distribute once."""
        m = self._machine
        self._make_room(
            min(node.file.num_blocks + self._fanout + 2, m.M // m.B) * m.B
        )
        with m.phase("svc-refine"):
            want = min(
                self._fanout - 1, max(1, -(-node.size // self._leaf_target) - 1)
            )
            pivots = approx_quantile_pivots(m, node.file, want)
            comps = composite(pivots)
            if len(comps) > 1:
                keep = np.concatenate(([True], np.diff(comps) > 0))
                pivots = pivots[keep]
            if len(pivots) == 0:
                raise AssertionError(
                    "refinement found no pivots for a node of "
                    f"{node.size} records"
                )
            children = distribute_by_pivots(m, node.file, pivots, "svc-refine")
        node.children = [
            _LazyNode(f, owned=True, size=len(f)) for f in children
        ]
        node.pivots = composite(pivots).copy()
        node.cum = np.cumsum([c.size for c in node.children]).astype(np.int64)
        if node.owned:
            node.file.free()
        node.file = None
        node.owned = False
        # Resident charge for the refinement's routing metadata: f-1
        # pivot composites plus f child sizes, one int64 each — a record
        # is three int64s, so charge (2f-1)/3 records, rounded up.
        self._resident_records += -(-(2 * len(node.children) - 1) // 3)
        self.stats["refinements"] += 1
        self._m_refinements.inc()
        self._sync_resident()

    def _leaf_select(self, leaf: _LazyNode, local_ranks: np.ndarray) -> np.ndarray:
        """Load one leaf and answer all its local ranks in memory."""
        m = self._machine
        with m.phase("svc-leaf"):
            footprint = leaf.file.num_blocks * m.B
            self._make_room(footprint)
            with m.memory.lease(footprint, "svc-leaf-load"):
                recs = leaf.file.read_range(0, leaf.file.num_blocks)
                self.stats["leaf_loads"] += 1
                self._m_leaf_loads.inc()
                return select_at_ranks(m, recs, local_ranks)

    def _count(self, node, lo_c, hi_c, node_lo, node_hi) -> int:
        """Elements of ``node`` with composite in ``(lo_c, hi_c]``.

        ``node_lo``/``node_hi`` bound the node's composite range
        (``None`` = unbounded); fully inside → node size, disjoint → 0,
        partial leaf → streaming scan.
        """
        m = self._machine
        if node_hi is not None and node_hi <= lo_c:
            return 0
        if node_lo is not None and node_lo >= hi_c:
            return 0
        fully_inside = (
            node_lo is not None
            and node_lo >= lo_c
            and node_hi is not None
            and node_hi <= hi_c
        )
        if fully_inside:
            return node.size
        if node.children is None:
            count = 0
            with BlockReader(node.file, "svc-range-scan") as reader:
                for block in reader:
                    cmp_linear(m, 2 * len(block))
                    comps = composite(block)
                    count += int(((comps > lo_c) & (comps <= hi_c)).sum())
            return count
        total = 0
        bounds = [node_lo, *[int(p) for p in node.pivots], node_hi]
        for i, child in enumerate(node.children):
            total += self._count(child, lo_c, hi_c, bounds[i], bounds[i + 1])
        return total

    def _leaf_count(self, node: _LazyNode) -> int:
        if node.children is None:
            return 1
        return sum(self._leaf_count(c) for c in node.children)

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
        """Drop the tree without freeing disk (simulated process death).

        The lazy engine is read-only: its durable state *is* the input
        file, which survives on disk untouched.  After a crash a new
        engine over the same file answers identically (refinement
        copies owned by the dead tree become unreachable blocks — the
        documented cost of crashing a cache).
        """
        if self._closed:
            return
        self._root = _LazyNode(None, owned=False, size=0)
        self._cache = {}
        if not self._resident.released:
            self._resident.release()
        self._closed = True

    def close(self) -> None:
        """Free every owned tree file and release the resident lease."""
        if self._closed:
            return

        def _free(node: _LazyNode) -> None:
            if node.children is not None:
                for child in node.children:
                    _free(child)
            if node.file is not None and node.owned:
                node.file.free()
            node.file = None
            node.children = None

        _free(self._root)
        self._cache = {}
        if not self._resident.released:
            self._resident.release()
        self._closed = True

    def __enter__(self) -> "LazyPartitionIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
