"""Seeded query-trace generators for the online partition service.

A *rank trace* is a 1-based ``np.int64`` array of length ``q``: the
sequence of ``select`` ranks a client issues against a file of ``n``
records.  Three shapes matter for the online engine
(:mod:`repro.service.online`):

* :func:`uniform_trace` — every rank equally likely; the engine must
  eventually refine everywhere, so total I/O approaches the offline
  splitter cost.
* :func:`zipfian_trace` — a few hot ranks dominate; refinements
  concentrate where queries land and repeats hit the pivot-tree cache,
  the regime where lazy refinement wins big.
* :func:`adversarial_trace` — evenly spaced ranks visited in
  bit-reversed order: each query lands as far as possible from every
  previously refined region, forcing the fastest possible spread of
  refinement work (the worst case for laziness).

:func:`mixed_query_trace` additionally produces a mixed-kind trace
(selects, quantiles, range counts, partition lookups) as plain tuples
that :class:`repro.service.frontend.QueryFrontend` accepts directly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uniform_trace",
    "zipfian_trace",
    "adversarial_trace",
    "shard_skew_trace",
    "mixed_query_trace",
    "update_batches",
    "QUERY_TRACES",
]

#: Large odd multiplier (Knuth) scattering consecutive ids across [0, n).
_SCATTER = 2654435761


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def uniform_trace(q: int, n: int, seed: int = 0) -> np.ndarray:
    """``q`` ranks drawn uniformly from ``[1, n]``."""
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    return _rng(seed).integers(1, n + 1, size=q).astype(np.int64)


def zipfian_trace(
    q: int, n: int, seed: int = 0, alpha: float = 1.1
) -> np.ndarray:
    """``q`` ranks with Zipf(``alpha``) popularity over distinct ranks.

    The ``i``-th most popular *identity* is drawn with probability
    ``∝ i^-alpha``; identities are scattered across ``[1, n]`` by a
    multiplicative hash so the hot set is spread over the whole file
    (hitting one partition repeatedly would be too easy).
    """
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    if alpha <= 1.0:
        raise ValueError("zipf exponent must exceed 1")
    ids = _rng(seed).zipf(alpha, size=q).astype(np.int64)
    # Reduce mod n *before* multiplying: zipf draws are unbounded, and
    # ``(ids - 1) * _SCATTER`` overflows int64 for ids ≳ 2^32 (heavy-tail
    # draws hit this with probability ≈ q·2^(-32(alpha-1)), i.e. routinely
    # for alpha near 1), silently folding the wrapped hot ids onto
    # implementation-defined ranks.  ``(x % n) * (_SCATTER % n)`` is
    # congruent to ``x * _SCATTER`` mod n and stays below n·n ≤ 2^62 for
    # n ≤ 2^31, the supported file-size range.
    return ((ids - 1) % n) * (_SCATTER % n) % n + 1


def _bit_reverse(i: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def adversarial_trace(q: int, n: int, seed: int = 0) -> np.ndarray:
    """``q`` evenly spaced ranks visited in bit-reversed order.

    Successive queries land in maximally separated regions of the rank
    space, so a lazy engine can never serve two consecutive queries from
    one refined partition — the refinement-forcing worst case.  The
    ``seed`` rotates the starting offset (the shape itself is
    deterministic).
    """
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    if q == 0:
        return np.empty(0, dtype=np.int64)
    bits = max(1, int(np.ceil(np.log2(q))))
    order = [_bit_reverse(i, bits) for i in range(1 << bits)]
    order = [i for i in order if i < q]
    even = np.linspace(1, n, q).astype(np.int64)
    rot = int(_rng(seed).integers(0, q))
    return even[(np.array(order, dtype=np.int64) + rot) % q]


def shard_skew_trace(
    q: int,
    n: int,
    seed: int = 0,
    shards: int = 8,
    alpha: float = 1.2,
) -> np.ndarray:
    """``q`` ranks with zipfian popularity over *rank stripes* — the
    hot-shard workload for the sharded service.

    The rank space splits into ``shards`` equal contiguous stripes (a
    key-range-sharded deployment routes each stripe to one shard).
    Each query picks a stripe with Zipf(``alpha``) popularity — stripe
    popularity order is a seeded permutation, so the hot shard isn't
    always shard 0 — then a uniform rank inside it.  With ``shards``
    matching the service's ``W`` this adversarially skews routing (one
    worker sees most of the traffic); with ``shards = 1`` it degrades
    to :func:`uniform_trace`-like balanced load.
    """
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    if shards < 1 or shards > n:
        raise ValueError("need 1 <= shards <= n")
    if alpha <= 1.0:
        raise ValueError("zipf exponent must exceed 1")
    rng = _rng(seed)
    hot_order = rng.permutation(shards)
    stripe = hot_order[(rng.zipf(alpha, size=q).astype(np.int64) - 1) % shards]
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    lo, hi = bounds[stripe], bounds[stripe + 1]
    return (lo + rng.integers(0, np.maximum(hi - lo, 1))).astype(np.int64) + 1


def mixed_query_trace(
    q: int, n: int, seed: int = 0, key_range: int | None = None
) -> list[tuple]:
    """A mixed trace of query tuples over a file of ``n`` records.

    Roughly half selects (zipfian ranks), a quarter quantiles, and the
    rest split between range counts and partition lookups.  Tuples use
    the :class:`repro.service.frontend.Query` wire shapes:
    ``("select", rank)``, ``("quantile", q)``,
    ``("range_count", lo, hi)``, ``("partition_of", key)``.
    """
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    if key_range is None:
        key_range = 4 * n
    rng = _rng(seed)
    ranks = zipfian_trace(q, n, seed=seed + 1)
    out: list[tuple] = []
    for i in range(q):
        roll = rng.random()
        if roll < 0.5:
            out.append(("select", int(ranks[i])))
        elif roll < 0.75:
            out.append(("quantile", float(np.round(rng.random(), 3))))
        elif roll < 0.9:
            lo = int(rng.integers(0, key_range))
            hi = int(rng.integers(lo, key_range))
            out.append(("range_count", lo, hi))
        else:
            out.append(("partition_of", int(rng.integers(0, key_range))))
    return out


def update_batches(
    initial_keys,
    batches: int,
    appends: int,
    deletes: int,
    seed: int = 0,
) -> list[list[tuple]]:
    """A deterministic interleaved update plan for the partition service.

    Returns ``batches`` lists of operations — ``("append", keys_array)``
    and ``("delete", key)`` tuples, shuffled together within each batch —
    such that every delete targets a key that is live at its position in
    the plan (tracking appends and deletes across batches), so applying
    the plan in order through
    :meth:`repro.service.index.PartitionIndex.append` /
    :meth:`~repro.service.index.PartitionIndex.delete` never raises.
    Appended keys are fresh (disjoint from ``initial_keys``).  The same
    ``(initial_keys, batches, appends, deletes, seed)`` always produces
    the same plan — crash tests replay it on a shadow index and compare
    answers, and the durability solver replays it for the budget gate.
    """
    if batches < 0 or appends < 0 or deletes < 0:
        raise ValueError("batches/appends/deletes must be >= 0")
    rng = _rng(seed)
    live = [int(k) for k in np.asarray(initial_keys, dtype=np.int64)]
    fresh = (
        int(max(live)) + 1 if live else 0
    )  # appended keys start past the initial key range
    plan: list[list[tuple]] = []
    for _ in range(batches):
        ops: list[tuple] = []
        new_keys = np.arange(fresh, fresh + appends, dtype=np.int64)
        fresh += appends
        # Split the appends into a few runs so batches interleave
        # appends and deletes rather than grouping all appends first.
        runs = int(rng.integers(1, 4)) if appends else 0
        bounds = sorted(
            int(rng.integers(0, appends + 1)) for _ in range(runs - 1)
        )
        for lo, hi in zip([0, *bounds], [*bounds, appends]):
            if hi > lo:
                ops.append(("append", new_keys[lo:hi]))
        victims: list[int] = []
        for _ in range(min(deletes, len(live))):
            victims.append(live.pop(int(rng.integers(len(live)))))
        ops.extend(("delete", v) for v in victims)
        order = rng.permutation(len(ops))
        batch = [ops[i] for i in order]
        # A delete may precede the append run introducing other fresh
        # keys — that's the interleaving under test — but deletes always
        # target keys live *before* this batch, so order stays valid.
        plan.append(batch)
        live.extend(int(k) for k in new_keys)
    return plan


#: Registry of named rank traces: name -> ``fn(q, n, seed) -> ranks``.
QUERY_TRACES = {
    "uniform": uniform_trace,
    "zipfian": zipfian_trace,
    "adversarial": adversarial_trace,
    "shard-skew": shard_skew_trace,
}
