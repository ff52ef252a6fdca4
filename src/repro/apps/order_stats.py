"""External-memory order statistics — composition utilities.

Everyday statistics over disk-resident data, built by composing the
library's selection primitives with single aggregation scans:

* :func:`median` / :func:`percentile` — one linear-I/O selection;
* :func:`percentiles` — many at once via Theorem 4's multi-selection;
* :func:`trimmed_mean` — two selections bracket the kept range, one scan
  aggregates it (the classic robust-mean recipe, ``O(N/B)`` I/Os);
* :func:`top_k` — the k smallest/largest records materialized
  (selection + one filter scan, ``O(N/B + k/B)``).

Each returns plain Python values / record arrays and charges the machine
exactly what the composition costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear
from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import composite, composite_of
from ..em.streams import BlockWriter, scan_chunks
from ..alg.selection import select_rank_fast
from ..core.multiselect import multi_select

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = [
    "median",
    "percentile",
    "percentiles",
    "rank_of_fraction",
    "trimmed_mean",
    "top_k",
]


def rank_of_fraction(n: int, q: float) -> int:
    """1-based rank of the ``q``-quantile (nearest-rank definition).

    The single quantile→rank convention shared by every consumer
    (:func:`percentile`, :func:`percentiles`, and the online service's
    ``quantile`` queries), so their answers agree element for element.
    """
    if not 0 <= q <= 1:
        raise SpecError("quantile fraction must lie in [0, 1]")
    return min(n, max(1, int(np.ceil(q * n))))


def percentile(machine: "Machine", file: EMFile, q: float) -> int:
    """The key of the ``q``-quantile record (nearest rank), ``O(N/B)``."""
    n = len(file)
    if n == 0:
        raise SpecError("cannot take a percentile of an empty file")
    rec = select_rank_fast(machine, file, rank_of_fraction(n, q))
    return int(rec["key"])


def median(machine: "Machine", file: EMFile) -> int:
    """The (lower) median key, ``O(N/B)`` I/Os."""
    return percentile(machine, file, 0.5)


def percentiles(machine: "Machine", file: EMFile, qs, index=None) -> list[int]:
    """Many quantiles at once — one batched multi-selection, never a loop.

    All requested ranks go down in a *single* :func:`multi_select` call
    (``O((N/B)·lg(k/B))`` I/Os total, not per quantile; the regression
    test pins this).  When a built
    :class:`repro.service.index.PartitionIndex` (or any engine with a
    ``batch_select``) over the same data is passed as ``index``, the
    ranks are routed through it instead, which typically costs one
    partition load per *distinct* partition touched.
    """
    if index is not None:
        n = index.n_live
        if n == 0:
            raise SpecError("cannot take percentiles of an empty file")
        ranks = np.array([rank_of_fraction(n, q) for q in qs], dtype=np.int64)
        if len(ranks) == 0:
            return []
        return [int(k) for k in index.batch_select(ranks)["key"]]
    n = len(file)
    if n == 0:
        raise SpecError("cannot take percentiles of an empty file")
    ranks = np.array([rank_of_fraction(n, q) for q in qs], dtype=np.int64)
    if len(ranks) == 0:
        return []
    answers = multi_select(machine, file, ranks)
    return [int(k) for k in answers["key"]]


def trimmed_mean(
    machine: "Machine", file: EMFile, trim: float = 0.1
) -> float:
    """Mean of the keys with the lowest and highest ``trim`` fractions
    dropped — the robust mean, in ``O(N/B)`` I/Os.

    Two selections bracket the kept range ``(lo, hi]`` by rank, then one
    scan sums the keys inside the bracket (composite order resolves
    duplicate keys at the boundaries deterministically).
    """
    n = len(file)
    if n == 0:
        raise SpecError("cannot take a mean of an empty file")
    if not 0 <= trim < 0.5:
        raise SpecError("trim must lie in [0, 0.5)")
    lo_rank = int(np.floor(trim * n))
    hi_rank = n - lo_rank
    if hi_rank <= lo_rank:
        raise SpecError("trim leaves no elements")
    lo_comp = None
    if lo_rank >= 1:
        lo_rec = select_rank_fast(machine, file, lo_rank)
        lo_comp = composite_of(int(lo_rec["key"]), int(lo_rec["uid"]))
    hi_rec = select_rank_fast(machine, file, hi_rank)
    hi_comp = composite_of(int(hi_rec["key"]), int(hi_rec["uid"]))

    total = 0
    count = 0
    with scan_chunks(file, machine.B, "trimmed-mean") as blocks:
        for block in blocks:
            cmp_linear(machine, 2 * len(block))
            comps = composite(block)
            keep = comps <= hi_comp
            if lo_comp is not None:
                keep &= comps > lo_comp
            total += int(block["key"][keep].sum())
            count += int(keep.sum())
    if count != hi_rank - lo_rank:
        raise AssertionError("trim bracket mis-sized")
    return total / count


def top_k(
    machine: "Machine", file: EMFile, k: int, largest: bool = False
) -> EMFile:
    """Materialize the ``k`` smallest (or largest) records as a new file.

    One selection finds the rank-``k`` boundary, one scan filters —
    ``O(N/B)`` I/Os regardless of ``k``.
    """
    n = len(file)
    if not 1 <= k <= n:
        raise SpecError(f"need 1 <= k <= {n}")
    boundary_rank = k if not largest else n - k + 1
    boundary = select_rank_fast(machine, file, boundary_rank)
    b_comp = composite_of(int(boundary["key"]), int(boundary["uid"]))
    with BlockWriter(machine, "topk") as writer:
        with scan_chunks(file, machine.B, "topk-scan") as blocks:
            for block in blocks:
                cmp_linear(machine, len(block))
                comps = composite(block)
                keep = comps <= b_comp if not largest else comps >= b_comp
                writer.write(block[keep])
        out = writer.close()
    if len(out) != k:
        raise AssertionError("top-k filter mis-sized")
    return out
