"""Every bound of Table 1 (and Theorems 1-6) as an evaluatable formula.

Conventions exactly as the paper's §1: ``lg_x(y) = max(1, log_x(y))``,
base 2 when omitted; "linear cost" is ``N/B``.  All functions return
floats — the Θ-constants are unknown, so experiments report the
*ratio* of measured I/O to these formulas and check that it is flat
across sweeps (a Θ-match), rather than comparing absolute values.
"""

from __future__ import annotations

import math

__all__ = [
    "lg",
    "lg_ratio",
    "sort_io",
    "scan_io",
    "selection_io",
    "intermixed_io",
    "multiselect_io",
    "multipartition_io",
    "multipartition_lower",
    "splitters_right_bound",
    "splitters_left_bound",
    "splitters_two_sided_bound",
    "partition_right_lower",
    "partition_right_upper",
    "partition_left_bound",
    "partition_two_sided_lower",
    "partition_two_sided_upper",
    "online_trace_io",
    "service_index_io",
    "service_recovery_io",
    "sharded_service_io",
    "lemma5_condition",
]


def lg(y: float, base: float = 2.0) -> float:
    """The paper's ``lg_x(y) = max(1, log_x(y))``.

    Defined as 1 for ``y <= 1`` (where the plain log would be ≤ 0 or
    undefined), matching the convention that every positive cost term
    contributes at least one "pass".
    """
    if base <= 1:
        raise ValueError("log base must exceed 1")
    if y <= 1:
        return 1.0
    return max(1.0, math.log(y, base))


def lg_ratio(y: float, m: int, b: int) -> float:
    """``lg_{M/B}(y)`` — the model's pass-count function."""
    base = max(2.0, m / b)
    return lg(y, base)


# ----------------------------------------------------------------------
# Substrate costs
# ----------------------------------------------------------------------
def scan_io(n: int, b: int) -> float:
    """Linear cost ``N/B``."""
    return n / b


def sort_io(n: int, m: int, b: int) -> float:
    """``(N/B)·lg_{M/B}(N/B)`` — the sorting bound [1]."""
    return (n / b) * lg_ratio(n / b, m, b)


def selection_io(n: int, b: int) -> float:
    """Single-rank selection: ``O(N/B)``."""
    return n / b


def intermixed_io(d: int, b: int) -> float:
    """Lemma 6: L-intermixed selection is ``O(|D|/B)``, independent of L."""
    return d / b


def multiselect_io(n: int, k: int, m: int, b: int) -> float:
    """Theorem 4: ``Θ((N/B)·lg_{M/B}(K/B))``."""
    return (n / b) * lg_ratio(k / b, m, b)


def multipartition_io(n: int, k: int, m: int, b: int) -> float:
    """Multi-partition upper bound [1]: ``O((N/B)·lg_{M/B} K)``."""
    return (n / b) * lg_ratio(k, m, b)


def multipartition_lower(n: int, k: int, m: int, b: int) -> float:
    """Lemma 5: ``Ω((N/B)·lg_{M/B} min{K, N/B})``
    (valid when :func:`lemma5_condition` holds)."""
    return (n / b) * lg_ratio(min(k, n / b), m, b)


def lemma5_condition(n: int, m: int, b: int) -> bool:
    """The Theorem 3 / Lemma 5 precondition ``lg N <= B·lg(M/B)``."""
    return math.log2(max(2, n)) <= b * math.log2(max(2, m / b))


# ----------------------------------------------------------------------
# Table 1 — K-splitters
# ----------------------------------------------------------------------
def splitters_right_bound(n: int, k: int, a: int, m: int, b: int) -> float:
    """Row 1 (Theorems 1, 5): ``Θ((1 + aK/B)·lg_{M/B}(K/B))``.

    Sublinear whenever ``aK ≪ N`` — the headline phenomenon.
    """
    return (1 + a * k / b) * lg_ratio(k / b, m, b)


def splitters_left_bound(n: int, k: int, bb: int, m: int, b: int) -> float:
    """Row 2 (Theorems 2, 5): ``Θ((N/B)·lg_{M/B}(N/(bB)))``.

    ``bb`` is the problem's upper size bound ``b`` (renamed to avoid the
    clash with the block size ``b``).
    """
    return (n / b) * lg_ratio(n / (bb * b), m, b)


def splitters_two_sided_bound(
    n: int, k: int, a: int, bb: int, m: int, b: int
) -> float:
    """Row 3: ``Θ((1 + aK/B)·lg_{M/B}(K/B) + (N/B)·lg_{M/B}(N/(bB)))``."""
    return splitters_right_bound(n, k, a, m, b) + splitters_left_bound(
        n, k, bb, m, b
    )


# ----------------------------------------------------------------------
# Table 1 — K-partitioning
# ----------------------------------------------------------------------
def partition_right_lower(n: int, b: int) -> float:
    """Row 4 lower (§3): ``Ω(N/B)`` — every element must be seen."""
    return n / b


def partition_right_upper(n: int, k: int, a: int, m: int, b: int) -> float:
    """Row 4 upper (Theorem 6):
    ``O(N/B + (aK/B)·lg_{M/B} min{K, aK/B})``."""
    return n / b + (a * k / b) * lg_ratio(min(k, a * k / b), m, b)


def partition_left_bound(n: int, k: int, bb: int, m: int, b: int) -> float:
    """Row 5 (Theorems 3, 6): ``Θ((N/B)·lg_{M/B} min{N/b, N/B})``."""
    return (n / b) * lg_ratio(min(n / bb, n / b), m, b)


def partition_two_sided_lower(n: int, k: int, bb: int, m: int, b: int) -> float:
    """Row 6 lower: same as the left-grounded bound (K plays no role)."""
    return partition_left_bound(n, k, bb, m, b)


def partition_two_sided_upper(
    n: int, k: int, a: int, bb: int, m: int, b: int
) -> float:
    """Row 6 upper (Theorem 6): ``O((aK/B)·lg_{M/B} min{K, aK/B}
    + (N/B)·lg_{M/B} min{N/b, N/B})``."""
    return (a * k / b) * lg_ratio(min(k, a * k / b), m, b) + partition_left_bound(
        n, k, bb, m, b
    )


# ----------------------------------------------------------------------
# Service-layer cost models (repro.service)
# ----------------------------------------------------------------------
def online_trace_io(n: int, k: int, queries: int, m: int, b: int) -> float:
    """Lazy online multiselection, worst-case total over a trace.

    Refinement work is bounded by fully materializing the K-way pivot
    tree once — Theorem 4's ``(N/B)·lg_{M/B}(K/B)`` — and each query
    additionally loads at most one ``~N/K``-record leaf
    (Barbay–Gupta's amortization: repeats and skew only make the first
    term *smaller*, never larger).
    """
    return multiselect_io(n, k, m, b) + queries * (n / (k * b))


def service_index_io(n: int, k: int, queries: int, m: int, b: int) -> float:
    """Eager partition index: build plus per-query partition loads.

    The build is one two-sided approximate K-partitioning plus a
    splitter-extraction scan (bounded by the sorting cost); each query
    then loads at most one partition of ``<= 2N/K`` records (the
    service's ``[N/2K, 2N/K]`` window).
    """
    return sort_io(n, m, b) + scan_io(n, b) + queries * (2.0 * n / (k * b))


def sharded_service_io(
    n: int, k: int, queries: int, shards: int, m: int, b: int,
    batch: int = 64,
) -> float:
    """Coordinator-side cost of the W-sharded service: build + trace.

    The coordinator pays for splitter sampling (one scan), the
    distribution pass (one scan plus the *charged sends* of every
    record to its shard — communication is block I/O, ``~N/B`` writes),
    and per-flush communication: each of the ``ceil(Q/batch)``
    frontend flushes exchanges a request/reply pair with up to ``W``
    shards (an envelope block each way), with the answer payloads
    adding ``~Q/B`` read blocks in total.  Control traffic (ingest
    acks, seal, shutdown) is ``O(W)`` round trips.  Per-shard engine
    work happens on the workers' own counters and is priced by
    :func:`online_trace_io` at shard scale, not here.
    """
    flushes = -(-queries // batch)
    return (
        3.0 * scan_io(n, b)
        + 2.0 * shards * flushes
        + queries / b
        + 8.0 * shards
    )


def service_recovery_io(
    n: int, k: int, updates: int, queries: int, m: int, b: int
) -> float:
    """Durable service crash recovery, total over the scenario.

    Recovery reads one manifest block, scans the metadata snapshot
    (``O(K + N/B)`` words packed three per record — segment descriptors
    dominate, one id per block of live data), scans the live WAL region
    (``O(1 + updates/(B-1))`` blocks), replays at most ``updates``
    logged operations (appends route at ``1/B`` amortized writes each;
    each delete scans one ``<= 2N/K``-record partition), re-snapshots
    the recovered state, and finally answers the verification trace at
    one partition load per query.  Replay can also trip rebalancing and
    a drift rebuild, bounded by one sort-cost pass over the live
    records.
    """
    part = 2.0 * n / (k * b)  # one partition load of <= 2N/K records
    meta = 2.0 * (1 + k + (n / b) / b) + updates / b  # manifest + snapshot x2
    wal = 1 + updates / max(1, b - 1)
    replay = updates / b + updates * part
    rebuild = sort_io(n, m, b) + scan_io(n, b)
    return meta + wal + replay + rebuild + queries * part
