"""Table 1, rows 4-6: approximate K-partitioning (right / left / two-sided).

* **T1.R4** — right-grounded: the lower bound is just Ω(N/B) (every
  element must be seen — checked literally via the touched-block set),
  the upper bound ``O(N/B + (aK/B)·lg_{M/B} min{K, aK/B})``.
* **T1.R5** — left-grounded: ``Θ((N/B)·lg_{M/B} min{N/b, N/B})``,
  measured on the *narrow* machine so the log factor actually moves
  across the ``b`` sweep.
* **T1.R6** — two-sided: upper
  ``O((aK/B)·lg min{K, aK/B} + (N/B)·lg min{N/b, N/B})``.
"""

from __future__ import annotations

from ..analysis.fit import fit_constant, ratio_stats
from ..analysis.verify import check_partitioned
from ..baselines.sort_based import sort_based_partition
from ..bounds.formulas import (
    partition_left_bound,
    partition_right_lower,
    partition_right_upper,
    partition_two_sided_upper,
)
from ..core.partitioning import (
    left_grounded_partition,
    right_grounded_partition,
    two_sided_partition,
)
from ..workloads.generators import load_input, random_permutation
from .base import (
    ExperimentResult,
    measure_io,
    narrow_machine,
    register,
    wide_machine,
)

__all__ = []


@register("T1.R4", "right-grounded K-partitioning: Ω(N/B), O(N/B + (aK/B)lg·)")
def t1_r4(quick: bool = False) -> ExperimentResult:
    n = 24_576 if quick else 98_304
    records = random_permutation(n, seed=45)
    sweep = [(16, 64), (256, 16)] if quick else [(16, 64), (64, 64), (256, 64), (64, 512)]

    headers = ["K", "a", "io", "lower N/B", "upper", "io/upper", "all blocks seen"]
    rows, measured, uppers, seen_all, above_lower = [], [], [], [], []
    for k, a in sweep:
        mach = wide_machine()
        f = load_input(mach, records)
        mach.disk.start_trace()
        pf, cost = measure_io(mach, lambda: right_grounded_partition(mach, f, k, a))
        read = {bid for op, bid in mach.disk.stop_trace() if op == "r"}
        check_partitioned(records, pf, a, n, k)
        pf.free()
        lower = partition_right_lower(n, mach.B)
        upper = partition_right_upper(n, k, a, mach.M, mach.B)
        saw_all = set(f.block_ids) <= read
        rows.append((k, a, cost, lower, upper, cost / upper, saw_all))
        measured.append(cost)
        uppers.append(upper)
        seen_all.append(saw_all)
        above_lower.append(cost >= lower)

    stats = ratio_stats(measured, uppers)
    checks = [
        ("theta-match vs upper (spread <= 4)", stats.spread <= 4.0),
        ("measured >= Ω(N/B) lower bound", all(above_lower)),
        ("§3 adversary: every input block read", all(seen_all)),
    ]
    return ExperimentResult(
        exp_id="T1.R4",
        title="right-grounded K-partitioning",
        claim="Ω(N/B) lower; O(N/B + (aK/B)·lg_{M/B} min{K, aK/B}) upper (Sec 3, Thm 6)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[f"fitted constant c = {fit_constant(measured, uppers):.2f}; {stats}"],
    )


@register("T1.R5", "left-grounded K-partitioning: Θ((N/B)·lg_{M/B} min{N/b, N/B})")
def t1_r5(quick: bool = False) -> ExperimentResult:
    # Narrow machine (M/B = 32, B = 16): lg_{M/B}(N/b) moves from ~1 to >2
    # over the b sweep, so curvature mismatches would show.
    n = 16_384 if quick else 65_536
    records = random_permutation(n, seed=46)
    sweep_b = [n // 512, n // 16] if quick else [n // 2048, n // 512, n // 128, n // 16, n // 4]

    headers = ["b", "K'=⌈N/b⌉", "io", "bound", "io/bound"]
    rows, measured, bounds = [], [], []
    for bb in sweep_b:
        k = max(2, -(-n // bb))
        mach = narrow_machine()
        f = load_input(mach, records)
        pf, cost = measure_io(mach, lambda: left_grounded_partition(mach, f, k, bb))
        check_partitioned(records, pf, 0, bb, k)
        pf.free()
        bound = partition_left_bound(n, k, bb, mach.M, mach.B)
        rows.append((bb, -(-n // bb), cost, bound, cost / bound))
        measured.append(cost)
        bounds.append(bound)

    stats = ratio_stats(measured, bounds)
    checks = [
        ("theta-match (ratio spread <= 4)", stats.spread <= 4.0),
        (
            "cost decreases as b grows (more slack, fewer passes)",
            measured[0] > measured[-1],
        ),
    ]
    return ExperimentResult(
        exp_id="T1.R5",
        title="left-grounded K-partitioning",
        claim="Θ((N/B)·lg_{M/B} min{N/b, N/B}) I/Os (Thms 3, 6)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[
            f"fitted constant c = {fit_constant(measured, bounds):.2f}; {stats}",
            f"N = {n}, narrow machine M=512 B=16 (N/B = {n // 16})",
        ],
    )


@register("T1.R6", "two-sided K-partitioning: O((aK/B)lg· + (N/B)lg·)")
def t1_r6(quick: bool = False) -> ExperimentResult:
    n = 24_576 if quick else 98_304
    records = random_permutation(n, seed=47)
    k = 64
    n_over_k = n // k
    sweep = [
        (n_over_k // 8, 8 * n_over_k),
        (n_over_k // 16, 4 * n_over_k),
        (n_over_k // 2, 8 * n_over_k),   # quantile fallback
    ]
    if quick:
        sweep = sweep[:2]

    headers = ["a", "b", "io", "upper", "io/upper", "sort io"]
    rows, measured, uppers = [], [], []
    sort_cost = None
    for a, bb in sweep:
        mach = wide_machine()
        f = load_input(mach, records)
        if sort_cost is None:
            _, sort_cost = measure_io(
                mach, lambda: sort_based_partition(mach, f, k, a, bb)
            )
            mach = wide_machine()
            f = load_input(mach, records)
        pf, cost = measure_io(mach, lambda: two_sided_partition(mach, f, k, a, bb))
        check_partitioned(records, pf, a, bb, k)
        pf.free()
        upper = partition_two_sided_upper(n, k, a, bb, mach.M, mach.B)
        rows.append((a, bb, cost, upper, cost / upper, sort_cost))
        measured.append(cost)
        uppers.append(upper)

    stats = ratio_stats(measured, uppers)
    checks = [
        ("theta-match vs upper (spread <= 4)", stats.spread <= 4.0),
        ("never slower than 2x sort baseline", max(measured) <= 2 * sort_cost),
    ]
    return ExperimentResult(
        exp_id="T1.R6",
        title="two-sided K-partitioning",
        claim="O((aK/B)·lg min{K, aK/B} + (N/B)·lg min{N/b, N/B}) I/Os (Thm 6)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[f"fitted constant c = {fit_constant(measured, uppers):.2f}; {stats}"],
    )
