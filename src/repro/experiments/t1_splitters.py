"""Table 1, rows 1-3: approximate K-splitters (right / left / two-sided).

Every experiment sweeps the row's governing parameter, measures the
simulated I/O of the §5.1 algorithm, and reports it next to the row's
Θ-bound and the sort-based baseline.  Shape checks encode the paper's
qualitative claims:

* **T1.R1** — cost tracks ``(1 + aK/B)·lg_{M/B}(K/B)`` and is *sublinear*
  (beats even one scan) when ``aK ≪ N``; the algorithm provably cannot
  have seen most of the input, which we verify via the disk's
  touched-block set.
* **T1.R2** — cost tracks ``(N/B)·lg_{M/B}(N/(bB))``, decreasing toward
  one scan as ``b`` grows; the hard-permutation family of §2.1 does not
  help the algorithm.
* **T1.R3** — cost tracks the sum of the two terms; the quantile-fallback
  regime (``a ≥ N/2K`` or ``b ≤ 2N/K``) is exercised alongside the
  general regime.
"""

from __future__ import annotations

import numpy as np

from ..analysis.fit import fit_constant, ratio_stats
from ..analysis.verify import check_splitters
from ..baselines.sort_based import sort_based_splitters
from ..bounds.counting import theorem1_min_ios_exact, theorem2_min_ios_exact
from ..bounds.formulas import (
    splitters_left_bound,
    splitters_right_bound,
    splitters_two_sided_bound,
)
from ..core.splitters import (
    left_grounded_splitters,
    right_grounded_splitters,
    two_sided_splitters,
)
from ..workloads.generators import hard_permutation, load_input, random_permutation
from .base import ExperimentResult, measure_io, register, wide_machine

__all__ = []


def _sort_baseline_io(records, k: int, a: int, b: int) -> int:
    mach = wide_machine()
    f = load_input(mach, records)
    _, cost = measure_io(mach, lambda: sort_based_splitters(mach, f, k, a, b))
    return cost


@register("T1.R1", "right-grounded K-splitters: Θ((1+aK/B)·lg_{M/B}(K/B))")
def t1_r1(quick: bool = False) -> ExperimentResult:
    n = 24_576 if quick else 98_304
    records = random_permutation(n, seed=42)
    sweep_k = [16, 128] if quick else [16, 64, 256, 1024]
    sweep_a = [4, 64, 192] if quick else [4, 16, 64, 256]

    headers = [
        "K", "a", "aK/N", "io", "bound", "io/bound",
        "blocks seen", "of", "sublinear",
    ]
    rows, subl_ok, seen_frac = [], [], []
    big, big_bounds = [], []  # points where the full machinery runs (aK > M)
    measured, bounds = [], []
    above_exact_lb, seen_enough = [], []
    sort_cost = _sort_baseline_io(records, sweep_k[0], sweep_a[0], n)
    for k in sweep_k:
        for a in sweep_a:
            if a * k > n:
                continue
            mach = wide_machine()
            f = load_input(mach, records)
            mach.disk.start_trace()
            res, cost = measure_io(
                mach, lambda: right_grounded_splitters(mach, f, k, a)
            )
            read = {bid for op, bid in mach.disk.stop_trace() if op == "r"}
            check_splitters(records, res.splitters, a, n, k)
            bound = splitters_right_bound(n, k, a, mach.M, mach.B)
            seen = len(read & set(f.block_ids))
            nb = f.num_blocks
            sub = cost < n / mach.B
            rows.append(
                (k, a, a * k / n, cost, bound, cost / bound, seen, nb, sub)
            )
            measured.append(cost)
            bounds.append(bound)
            # Theorem 1's exact counting chain is a hard lower bound; the
            # seen-elements part also forces >= ceil(aK/B) distinct blocks.
            lb = theorem1_min_ios_exact(n, k, a, mach.M, mach.B)
            above_exact_lb.append(cost >= lb)
            seen_enough.append(seen >= a * k // mach.B)
            if a * k > mach.M:
                big.append(cost)
                big_bounds.append(bound)
            if a * k <= n // 16:
                subl_ok.append(sub)
                seen_frac.append(seen / nb)

    # Θ-flatness is judged where the full algorithm actually runs
    # (aK > M); below that the prefix S' fits in memory and the constant
    # is legitimately smaller (a different — cheaper — code path within
    # the same O(1 + aK/B) class).
    stats = ratio_stats(big, big_bounds)
    checks = [
        ("theta-match where aK > M (ratio spread <= 4)", stats.spread <= 4.0),
        ("sublinear whenever aK <= N/16", all(subl_ok) and len(subl_ok) > 0),
        (
            "small-aK runs touch a minority of input blocks",
            all(fr < 0.5 for fr in seen_frac),
        ),
        (
            "measured >= Theorem 1's exact counting lower bound",
            all(above_exact_lb),
        ),
        (
            "seen-elements argument: >= floor(aK/B) input blocks read",
            all(seen_enough),
        ),
        ("beats sort baseline at smallest point", measured[0] < sort_cost),
    ]
    return ExperimentResult(
        exp_id="T1.R1",
        title="right-grounded K-splitters",
        claim="Θ((1+aK/B)·lg_{M/B}(K/B)) I/Os; sublinear when aK ≪ N (Thms 1, 5)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[
            f"fitted constant c = {fit_constant(measured, bounds):.2f}; {stats}",
            f"sort baseline at (K={sweep_k[0]}, a={sweep_a[0]}): {sort_cost} I/Os",
            f"N = {n}, machine M=4096 B=64 (N/B = {n // 64})",
        ],
    )


@register("T1.R2", "left-grounded K-splitters: Θ((N/B)·lg_{M/B}(N/(bB)))")
def t1_r2(quick: bool = False) -> ExperimentResult:
    n = 24_576 if quick else 98_304
    perm = random_permutation(n, seed=43)
    hard = hard_permutation(n, 64, seed=43)
    sweep_b = (
        [n // 64, n // 4] if quick else [n // 256, n // 64, n // 16, n // 4, n // 2]
    )

    headers = ["workload", "b", "K'=⌈N/b⌉", "io", "bound", "io/bound", "exact LB"]
    rows, measured, bounds, above_lb = [], [], [], []
    per_workload: dict[str, list[int]] = {"perm": [], "hard": []}
    for name, records in [("perm", perm), ("hard", hard)]:
        for bb in sweep_b:
            k = max(2, -(-n // bb))
            mach = wide_machine()
            f = load_input(mach, records)
            res, cost = measure_io(
                mach, lambda: left_grounded_splitters(mach, f, k, bb)
            )
            check_splitters(records, res.splitters, 0, bb, k)
            bound = splitters_left_bound(n, k, bb, mach.M, mach.B)
            lb = theorem2_min_ios_exact(n, k, bb, mach.M, mach.B)
            rows.append((name, bb, -(-n // bb), cost, bound, cost / bound, lb))
            measured.append(cost)
            bounds.append(bound)
            above_lb.append(cost >= lb)
            per_workload[name].append(cost)

    stats = ratio_stats(measured, bounds)
    sort_cost = _sort_baseline_io(perm, max(2, n // sweep_b[0]), 0, sweep_b[0])
    big_b_cost = per_workload["perm"][-1]
    checks = [
        ("theta-match (ratio spread <= 4)", stats.spread <= 4.0),
        (
            "cost non-increasing in b (random workload)",
            all(
                x >= y * 0.95
                for x, y in zip(per_workload["perm"], per_workload["perm"][1:])
            ),
        ),
        (
            "hard permutations no harder than Θ allows",
            max(per_workload["hard"]) <= 4.0 * max(per_workload["perm"]),
        ),
        (
            "measured >= Theorem 2's exact counting lower bound",
            all(above_lb),
        ),
        ("beats sort baseline at largest b", big_b_cost < sort_cost),
    ]
    return ExperimentResult(
        exp_id="T1.R2",
        title="left-grounded K-splitters",
        claim="Θ((N/B)·lg_{M/B}(N/(bB))) I/Os, decreasing toward one scan as b grows (Thms 2, 5)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[
            f"fitted constant c = {fit_constant(measured, bounds):.2f}; {stats}",
            f"sort baseline: {sort_cost} I/Os; N = {n}",
        ],
    )


@register("T1.R3", "two-sided K-splitters: Θ((1+aK/B)lg(K/B) + (N/B)lg(N/(bB)))")
def t1_r3(quick: bool = False) -> ExperimentResult:
    n = 24_576 if quick else 98_304
    records = random_permutation(n, seed=44)
    k = 64
    # (a, b) pairs spanning the general regime and both fallback triggers.
    n_over_k = n // k
    sweep = [
        (n_over_k // 8, 8 * n_over_k),   # general regime
        (n_over_k // 16, 4 * n_over_k),  # general regime
        (n_over_k // 2, 8 * n_over_k),   # fallback: a >= N/2K
        (n_over_k // 8, 2 * n_over_k),   # fallback: b <= 2N/K
    ]
    if quick:
        sweep = sweep[:2]

    headers = ["a", "b", "variant", "io", "bound", "io/bound"]
    rows, measured, bounds = [], [], []
    for a, bb in sweep:
        mach = wide_machine()
        f = load_input(mach, records)
        res, cost = measure_io(mach, lambda: two_sided_splitters(mach, f, k, a, bb))
        check_splitters(records, res.splitters, a, bb, k)
        bound = splitters_two_sided_bound(n, k, a, bb, mach.M, mach.B)
        rows.append((a, bb, res.variant, cost, bound, cost / bound))
        measured.append(cost)
        bounds.append(bound)

    stats = ratio_stats(measured, bounds)
    sort_cost = _sort_baseline_io(records, k, sweep[0][0], sweep[0][1])
    checks = [
        ("theta-match (ratio spread <= 5)", stats.spread <= 5.0),
        (
            "same ballpark as sort at this scale (<= 3.5x)",
            max(measured) <= 3.5 * sort_cost,
        ),
    ]
    if not quick:
        variants = {row[2] for row in rows}
        checks.append(
            (
                "both regimes exercised",
                "two-sided" in variants
                and "two-sided/quantile-fallback" in variants,
            )
        )
    return ExperimentResult(
        exp_id="T1.R3",
        title="two-sided K-splitters",
        claim="Θ((1+aK/B)·lg_{M/B}(K/B) + (N/B)·lg_{M/B}(N/(bB))) I/Os (Thms 1, 2, 5)",
        headers=headers,
        rows=rows,
        checks=checks,
        notes=[
            f"fitted constant c = {fit_constant(measured, bounds):.2f}; {stats}",
            f"sort baseline: {sort_cost} I/Os; N = {n}, K = {k}",
            "the asymptotic win over sorting needs lg_{M/B}(N/B) to exceed "
            "this implementation's ~8-10x constant over the two-sided bound; "
            "at simulation scale sorting's constant (~4 passes) is smaller, "
            "so the comparison is reported at the bound level",
        ],
    )
