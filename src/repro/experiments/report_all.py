"""Render EXPERIMENTS.md from a full harness run.

``python -m repro report [--quick] [--out EXPERIMENTS.md]`` runs every
registered experiment and writes the measured-vs-bound document — the
same file checked into the repository, so the recorded results are
reproducible by one command.

Experiments execute through :mod:`repro.experiments.runner` (parallel
fan-out); this module owns only the presentation — ordering,
commentary, and rendering.  The document is a pure function of the
results, so a parallel run renders byte-identically to a serial one.
"""

from __future__ import annotations

from typing import Sequence

from .base import ExperimentResult

__all__ = [
    "COMMENTARY",
    "DEFAULT_ORDER",
    "generate_experiments_md",
]

#: Per-experiment "paper claim vs what we measured" commentary, keyed by
#: experiment id.  Experiments without an entry get a generic header.
COMMENTARY: dict[str, str] = {
    "T1.R1": """**Paper claim.** Theorems 1 and 5: right-grounded K-splitters cost
`Θ((1 + aK/B)·lg_{M/B}(K/B))` — *sublinear* in N when `aK ≪ N` (all prior
EM lower-bound machinery was inherently linear; §1.3 highlights this).

**Measured.** The measured/bound ratio is flat where the full algorithm
runs (`aK > M`); every point with `aK ≤ N/16` costs less than one scan
and touches a minority of input blocks; the measured cost respects
Theorem 1's *exact* counting lower bound (no asymptotics) and the
seen-elements argument (≥ aK/B blocks read) on every run.""",
    "T1.R2": """**Paper claim.** Theorems 2 and 5: left-grounded K-splitters cost
`Θ((N/B)·lg_{M/B}(N/(bB)))`, falling toward one scan as `b` grows; the
lower bound is proved on the Π_hard permutation family (§2.1).

**Measured.** Cost is monotone non-increasing in `b` with a flat
measured/bound ratio; Π_hard inputs cost the same as random ones
(worst-case algorithm); measured I/O respects Theorem 2's exact counting
lower bound; the largest-b point beats the sort baseline outright.""",
    "T1.R3": """**Paper claim.** Two-sided splitters cost the sum
`Θ((1+aK/B)·lg(K/B) + (N/B)·lg(N/(bB)))` (Theorems 1, 2, 5) via the
S_low/S_high split at `K' = ⌊(bK-N)/(b-a)⌋`, with a plain-quantile
fallback when `a ≥ N/2K` or `b ≤ 2N/K`.

**Measured.** Flat Θ-ratio across both regimes; both code paths
exercised; the paper's correctness assertions (`K' ∈ [1, K-1]`,
`|S_high| ∈ [a(K-K'), b(K-K')]`) hold on every run in the suite.""",
    "T1.R4": """**Paper claim.** §3 + Theorem 6: right-grounded partitioning is
Ω(N/B) — any algorithm must *see every element* — with upper bound
`O(N/B + (aK/B)·lg_{M/B} min{K, aK/B})`.

**Measured.** The simulator's touched-block set shows every input block
read on every run (the adversary argument, checked literally); measured
cost exceeds the lower bound and is a flat multiple of the upper.""",
    "T1.R5": """**Paper claim.** Theorems 3 and 6: left-grounded partitioning is
`Θ((N/B)·lg_{M/B} min{N/b, N/B})` — K plays no role, only the
granularity `N/b` (the §3 reduction explains why).

**Measured.** On the narrow machine, where the log factor moves from
~2.3 to 1 across the sweep, measured cost falls accordingly with a flat
Θ-ratio.""",
    "T1.R6": """**Paper claim.** Theorem 6: two-sided partitioning costs
`O((aK/B)·lg min{K, aK/B} + (N/B)·lg min{N/b, N/B})`.

**Measured.** Flat ratio to the upper bound across the (a, b) sweep,
including the quantile-fallback regime.""",
    "THM4": """**Paper claim.** Theorem 4 (the paper's main algorithmic result):
multi-selection costs `Θ((N/B)·lg_{M/B}(K/B))` — optimal, closing the
Arge–Knudsen–Larsen gap — and is *separated* from multi-partition
(`Θ((N/B)·lg_{M/B} K)`) for small K, with equal hardness for large K.

**Measured.** Both implementations are flat multiples of their own
bounds; repeated selection loses ~5x already at K = 4; the two routes
stay within ~2x of each other (equal-hardness ballpark).  The separation
is reproduced at the *bound* level: at this machine shape the separation
factor tops out around 1.7x — below the ~2x constant gap between the two
implementations — so a raw measured win is out of reach at simulation
scale.  (The ratio of the two bounds is independent of N, so no N makes
it measurable here; the paper claims asymptotics in M/B and K, not
constants.)""",
    "LEM6": """**Paper claim.** Lemma 6: §4.1 solves L-intermixed selection in
`O(|D|/B)` I/Os — independent of L, because the L concurrent BFPRT
threads share scans with O(1) words of state each.

**Measured.** Per-block cost flat as |D| grows 16x; cost varies < 1.3x
as L grows 16x at fixed |D|; all answers verified per group.""",
    "LEM5": """**Paper claim.** Lemma 5: precise K-partitioning needs
`Ω((N/B)·lg_{M/B} min{K, N/B})` when `lg N ≤ B·lg(M/B)`, by machine-state
counting (`(2N·lgN·C(M,B))^H ≥ N!/((N/K)!)^K`).

**Measured.** The counting bound is evaluated exactly per sweep point;
measured multi-partition cost always sits above it and within a flat
constant of the Aggarwal–Vitter upper bound.""",
    "SEC3": """**Paper claim.** §3: any approximate partitioner with sizes ≤ b,
plus an O(N/B) residue-buffer sweep, solves *precise*
(N/b)-partitioning — the reduction behind Theorem 3.

**Measured.** The sweep costs ~2 block-passes with a memory-resident
residue and stays flat O(N/B) in the disk-resident regime; the reduction
is exercised with deliberately unbalanced and adversarially-ordered
approximate solvers; outputs are exactly-b partitions.""",
    "HU6": """**Substitution check.** The multi-selection base case consumes
Hu et al. [6] (SODA'13) as a black box: Θ(M) splitters, partition sizes
Θ(N/M), O(N/B) I/Os.  Our substitute (two-level sample-distribute-sample
plus a single-cascade fast path) must deliver exactly that interface.

**Measured.** Per-block cost flat across an 8x range of N and across
random/Zipf/heavy-duplicate workloads; every partition within
[1/8, 4]·N/P (typically within [0.85, 1.15]).""",
    "SORT": """**Substrate sanity.** Every Table 1 comparison is against "just
sort", so the sort substrate must track `Θ((N/B)·lg_{M/B}(N/B))` first.

**Measured.** Flat Θ-ratio on both machine shapes across a 16x range of
N; input order changes cost < 10%.""",
    "CMP": """**Model fidelity.** The paper's model is comparison-based with free
CPU; the simulator counts comparisons anyway (base cases run the
internal-memory multiple-selection engine of §1.2's reference [7],
Θ(n·lg k) comparisons, instead of full sorts).

**Measured.** Selection is O(N) comparisons (below sorting's Θ(N·lg N));
the fast bracket selection *spends* comparisons to save I/Os — the
model's trade made visible; multi-selection does O(log M) comparisons
per element, flat in N at fixed M.""",
    "SEQ": """**Beyond the model.** The EM model prices every transfer
equally; real storage does not.  The traced access patterns show which
of the model's I/Os would be seeks: scans and selections stream
(sequentiality ~1), the k-way merge alternates across runs, the
distribution recursion re-reads interleaved buckets; writes append
(log-structured allocation).""",
    "SPACE": """**Model fidelity.** The algorithms implicitly promise O(N/B)
working disk space.

**Measured.** Peak allocated blocks stay within 3x the input's N/B for
every algorithm, flat across N.""",
    "ABL1": """**Design choice.** Every `lg_{M/B}` is a pass count; sweeping the
merge fanout from 2 to M/B shows passes collapsing exactly as the log
base grows.""",
    "ABL2": """**Design choice.** The multi-selection base case's splitter
granularity P trades resident state against the intermixed instance size
|D| ≈ K·N/P; the sweep shows both sides and motivates the default
P = min(max(64, 8K), M/8).""",
    "ABL3": """**Design choice.** The §5.1 threshold `a ≥ N/2K` (or `b ≤ 2N/K`)
switches the two-sided algorithms to the plain 1/K-quantile; the sweep
shows the switch firing exactly at the threshold with cost within the
two-sided bound on both sides.""",
    "ABL5": """**Design choice.** Las Vegas randomized splitters (Chernoff
sample + verification scan) against the paper's deterministic route:
sampling wins on slack windows (~2 scans), the deterministic machinery
is what makes tight windows and worst-case bounds possible.""",
    "ABL4": """**Design choice.** The deterministic sampling cascade pays O(N/B)
to make bucket sizes a worst-case guarantee; naive random sampling is
far cheaper but only probabilistic — measured side by side.""",
    "SVC": """**Beyond the paper (application).** The online partition service
answers selection-query *traces* through a lazily refined pivot tree
(Barbay–Gupta over this paper's partitioning substrate): each query
refines only the tree path it touches, refinements persist, and answers
are cached.

**Measured.** Online answers are element-for-element identical to an
offline multi-selection; the headline zipfian trace costs well under
25 % of the per-query offline baseline (the acceptance bar, also pinned
by the `service-online` I/O budget); amortized I/O per query falls as
the trace grows and the second half of the trace is cheaper than the
first (the laziness actually amortizes); even the adversarial trace —
designed to force every refinement — stays within a small constant of
sorting everything up front.""",
    "SHARDS": """**Beyond the paper (application).** The sharded service splits the
record file across `W` worker machines by a sampled top-level splitter
set — the paper's splitters used as a *routing* structure — with a
coordinator that owns only routing state.  The EM model has no free
network, so every coordinator↔worker message is charged as block I/O on
both endpoints (writes to send, reads to receive), making communication
a first-class, traceable cost next to computation.

**Measured.** Sharded select answers are element-for-element identical
to the single-machine engine at every `W` (selects are determined by
the input multiset, so sharding must not change them); no record is
lost in distribution; the coordinator visibly pays charged message I/O
in both the build and query phases, growing with `W`; and the sampled
splitters keep shard sizes within 2x of the mean.""",
}

_HEADER = """# EXPERIMENTS — paper vs. measured

Full-sweep results of every experiment in the reproduction harness
(regenerate with ``python -m repro report``; the same runs as
``REPRO_BENCH_FULL=1 pytest benchmarks/ --benchmark-only``).  All numbers
are **simulated I/O counts** — exact costs in the Aggarwal–Vitter model,
deterministic and machine-independent (seeds fixed).  Wall-clock timings
of the simulation itself are what pytest-benchmark reports.

Machine shapes: **wide** = M 4096 records, B 64 (tall-cache, fanout 64);
**narrow** = M 512, B 16 (multi-pass regime, the `lg_{M/B}` factors move).

Because the venue reports asymptotic bounds rather than absolute numbers
(the paper has no experimental section), reproduction means: the
measured series is a *flat multiple* of each claimed Θ-formula across
its sweep, and every qualitative claim — who wins, sublinearity, where
regimes switch, exact counting lower bounds never violated — holds.
The implementation's constants are reported with every table
("fitted constant").
"""

_FOOTER = """## Reading guide

* *io/bound* columns are measured-I/O over the Θ-formula value; a flat
  column (small "spread") is a Θ-match.  Constants between 2 and 14 are
  expected — each formula counts abstract "passes" while the
  implementation pays reads+writes and lower-order terms per pass.
* Lower-bound rows (T1.R1, T1.R2, T1.R4, LEM5) compare against *exact*
  counting bounds, not asymptotic shapes: those are hard inequalities
  and hold on every run.
* Where a measured head-to-head is not decided by the asymptotics at
  simulation scale (two-sided splitters vs sorting; the
  multi-selection/multi-partition separation), the tables say so
  explicitly and the claim is verified at the bound level — the paper
  makes no constant-factor claims.
"""


def _ordered(
    results: list[ExperimentResult], order: Sequence[str] | None
) -> list[ExperimentResult]:
    """Reorder ``results`` by ``order``; unknown ids in ``order`` raise
    so a typo can't silently drop an experiment from the document."""
    if not order:
        return results
    by_id = {r.exp_id: r for r in results}
    unknown = [i for i in order if i not in by_id]
    if unknown:
        raise KeyError(
            f"order names unknown results: {', '.join(unknown)}; "
            f"known: {', '.join(by_id)}"
        )
    return [by_id[i] for i in order] + [
        r for r in results if r.exp_id not in set(order)
    ]


def generate_experiments_md(
    results: Sequence[ExperimentResult],
    order: Sequence[str] | None = None,
) -> tuple[str, bool]:
    """Render the document for ``results`` and return
    ``(markdown, all_passed)``.

    ``order`` lists experiment ids to present first, in that order; the
    rest follow in their given order.  Ids in ``order`` that no result
    carries raise ``KeyError`` rather than being silently dropped.
    """
    results = _ordered(list(results), order)
    chunks = [_HEADER]
    all_ok = all(r.passed for r in results)
    chunks.append(
        f"**Verdict: {sum(r.passed for r in results)}/{len(results)} "
        "experiments PASS** (every shape check below).\n\n---\n"
    )
    for result in results:
        commentary = COMMENTARY.get(
            result.exp_id, f"**{result.title}.**"
        )
        chunks.append(commentary)
        chunks.append("")
        chunks.append("```")
        chunks.append(result.render())
        chunks.append("```")
        chunks.append("\n---\n")
    chunks.append(_FOOTER)
    return "\n".join(chunks), all_ok


#: Presentation order: Table 1 rows, theorems/lemmas, substrate, ablations.
DEFAULT_ORDER = [
    "T1.R1", "T1.R2", "T1.R3", "T1.R4", "T1.R5", "T1.R6",
    "THM4", "LEM6", "LEM5", "SEC3", "HU6", "SORT", "CMP", "SPACE", "SEQ",
    "ABL1", "ABL2", "ABL3", "ABL4", "ABL5", "SVC", "SHARDS",
]

