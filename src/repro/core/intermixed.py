"""§4.1 — L-intermixed selection in ``O(|D|/B)`` I/Os (Lemma 6).

Input: a file ``D`` of records, each carrying a group id ``grp ∈ [0, L)``,
and target ranks ``t_0, ..., t_{L-1}`` (1-based within each group).
Output: for every group ``i``, the record with the ``t_i``-th smallest
key in ``D_i``.  Conceptually ``L`` concurrent threads of BFPRT
median-of-medians selection [3], sharing scans so each thread costs
``O(1)`` words of memory instead of a block:

* **Pass 1** — one scan splits every group into subgroups of ≤ 5 and
  collects each subgroup's median into a file Σ (with the same group id);
  the in-memory state is one ≤ 5-record carry buffer per group.
* **Recursion on Σ** — the same problem with ranks ``⌈|Σ_i|/2⌉`` yields
  the median-of-medians ``μ_i`` of every group.
* **Pass 2** — one scan counts ``θ_i = |{e ∈ D_i : e ≤ μ_i}|``.
* **Pass 3** — one scan keeps, per group, only the side of ``μ_i``
  containing the target rank, building ``D'`` and the adjusted ranks.
* **Tail recursion on D'**.

Since ``|Σ| ≤ |D|/5 + L`` and ``|D'| ≤ 7|D|/10 + 3L``, choosing
``L ≤ c·M`` for a small constant ``c`` gives
``|Σ| + |D'| ≤ (19/20)|D|`` whenever ``|D| > M/3``, so the recursion
costs ``O(|D|/B)`` I/Os in total (Lemma 6).  We use ``c = 1/32``
(:func:`max_groups`), which also leaves room for the ``O(L)`` words of
per-level state held across the Σ-recursions at practical ``|D|/M``
ratios — the memory accountant enforces this rather than trusting it.

Every scan here (the group-size count and passes 1–3) reads
memory-sized ``scan_chunks`` chunks and does its work once per chunk:
one ``np.bincount`` for a count, one mask for a filter.  The model cost
is that of a block-at-a-time scan: one read per block, one write per
output block, and the same comparison charges.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_linear, cmp_median5, cmp_sort
from ..em.errors import SpecError
from ..em.file import EMFile, read_runs
from ..em.records import RECORD_DTYPE, composite, empty_records
from ..em.streams import BlockWriter, scan_chunks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["intermixed_select", "max_groups", "group_sizes"]

#: The constant ``c`` of §4.1's ``m = cM``.
MEMORY_FRACTION_DENOM = 32


def max_groups(machine: "Machine") -> int:
    """Largest supported ``L`` (the paper's ``m = cM``)."""
    return max(1, machine.M // MEMORY_FRACTION_DENOM)


def group_sizes(machine: "Machine", d_file: EMFile, n_groups: int) -> np.ndarray:
    """One counted scan returning ``|D_i|`` for every group.  A record
    whose group id lies outside ``[0, n_groups)`` raises
    :class:`~repro.em.errors.SpecError`.

    The id check charges no comparisons, like the rank checks of
    :func:`intermixed_select`.
    """
    sizes = np.zeros(n_groups, dtype=np.int64)
    with machine.memory.lease(n_groups, "gs-counts"):
        with scan_chunks(d_file, machine.load_limit, "gs-scan") as chunks:
            for chunk in chunks:
                g = chunk["grp"]
                if g.min() < 0 or g.max() >= n_groups:
                    raise SpecError(f"group ids must lie in [0, {n_groups})")
                sizes += np.bincount(g, minlength=n_groups)
    return sizes


def intermixed_select(machine: "Machine", d_file: EMFile, t: np.ndarray) -> np.ndarray:
    """Solve the L-intermixed selection instance ``(D, t)``.

    Parameters
    ----------
    d_file:
        Records whose ``grp`` field lies in ``[0, len(t))``.  Left intact.
    t:
        1-based target rank per group; ``1 <= t[i] <= |D_i|``.

    Returns
    -------
    numpy.ndarray
        ``L`` records; entry ``i`` is the answer for group ``i``.

    Raises
    ------
    SpecError
        ``L`` above :func:`max_groups`, a group id outside ``[0, L)``,
        an empty group, or a rank outside ``[1, |D_i|]``.
    """
    t = np.asarray(t, dtype=np.int64)
    L = len(t)
    if L == 0:
        return empty_records(0)
    if L > max_groups(machine):
        raise SpecError(
            f"L={L} exceeds the supported m = M/{MEMORY_FRACTION_DENOM} = "
            f"{max_groups(machine)} groups (paper §4.1 requires L <= cM)"
        )
    sizes = group_sizes(machine, d_file, L)
    if np.any(sizes == 0):
        raise SpecError("every group must be non-empty")
    if np.any(t < 1) or np.any(t > sizes):
        raise SpecError("target ranks must satisfy 1 <= t_i <= |D_i|")
    with machine.phase("intermixed"):
        return _solve(machine, d_file, t, owned=False)


def _solve(machine: "Machine", file: EMFile, t: np.ndarray, owned: bool) -> np.ndarray:
    L = len(t)
    n = len(file)
    if n <= machine.M // 3:
        return _solve_in_memory(machine, file, t, owned)

    # ------------------------------------------------------------------
    # Pass 1: subgroup medians into Σ.
    # ------------------------------------------------------------------
    sigma_file, sigma_sizes = _median_pass(machine, file, L)

    # ------------------------------------------------------------------
    # Recursion on Σ: group medians μ.  Only ``t`` (O(L)) is live here.
    # ------------------------------------------------------------------
    with machine.memory.lease(L, "ix-suspended-t"):
        mu = _solve(machine, sigma_file, (sigma_sizes + 1) // 2, owned=True)

    # Live per-group state across passes 2-3: μ, θ, t, t' — 4L words.
    mu_lease = machine.memory.lease(4 * L, "ix-mu-theta")
    try:
        mu_comp = composite(mu)

        # --------------------------------------------------------------
        # Pass 2: rank θ_i of μ_i within D_i.
        # --------------------------------------------------------------
        theta = np.zeros(L, dtype=np.int64)
        with scan_chunks(file, machine.load_limit, "ix-theta") as chunks:
            for chunk in chunks:
                cmp_linear(machine, len(chunk))
                g = chunk["grp"]
                le = composite(chunk) <= mu_comp[g]
                theta += np.bincount(g[le], minlength=L)

        # --------------------------------------------------------------
        # Pass 3: build D' and t'.
        # --------------------------------------------------------------
        low_side = t <= theta
        t_next = np.where(low_side, t, t - theta)
        with BlockWriter(machine, "ix-dprime") as writer:
            with scan_chunks(file, machine.load_limit, "ix-filter") as chunks:
                for chunk in chunks:
                    cmp_linear(machine, len(chunk))
                    g = chunk["grp"]
                    le = composite(chunk) <= mu_comp[g]
                    writer.write(chunk[np.where(low_side[g], le, ~le)])
            d_prime = writer.close()
    finally:
        mu_lease.release()
    if owned:
        file.free()

    # Tail recursion on D'.
    return _solve(machine, d_prime, t_next, owned=True)


def _solve_in_memory(
    machine: "Machine", file: EMFile, t: np.ndarray, owned: bool
) -> np.ndarray:
    """Base case: |D| ≤ M/3 — load, then select per group."""
    L = len(t)
    n = len(file)
    with machine.memory.lease(n + L, "ix-base"):
        cmp_sort(machine, n)
        data = read_runs([file])
        order = np.lexsort((composite(data), data["grp"]))
        data = data[order]
        starts = np.searchsorted(data["grp"], np.arange(L), side="left")
        answers = data[starts + t - 1]
    if owned:
        file.free()
    return answers


def _median_pass(
    machine: "Machine", file: EMFile, L: int
) -> tuple[EMFile, np.ndarray]:
    """One scan producing the subgroup-medians file Σ and ``|Σ_i|``.

    Fully vectorized per memory-sized chunk: carried partial subgroups
    are flattened in front of the chunk, one stable sort groups records
    by group id, per-group positions identify the complete 5-subgroups,
    and one reshape + row-wise median emits all of them at once.
    """
    carry_lease = machine.memory.lease(7 * L, "ix-carry")
    try:
        carry = np.zeros((L, 5), dtype=RECORD_DTYPE)
        carry_cnt = np.zeros(L, dtype=np.int64)
        sigma_sizes = np.zeros(L, dtype=np.int64)
        with BlockWriter(machine, "ix-sigma") as writer:
            chunk_records = machine.load_limit
            with scan_chunks(file, chunk_records, "ix-median-scan") as chunks:
                for chunk in chunks:
                    if len(chunk) == 0:
                        continue
                    cmp_median5(machine, len(chunk))
                    # Prepend the carried partials so each group's records
                    # appear in arrival order after the stable group sort.
                    carried_groups = np.flatnonzero(carry_cnt)
                    parts = [carry[g, : carry_cnt[g]] for g in carried_groups]
                    parts.append(chunk)
                    comb = np.concatenate(parts)
                    comb = comb[np.argsort(comb["grp"], kind="stable")]
                    g = comb["grp"]

                    change = np.flatnonzero(np.diff(g)) + 1
                    starts = np.concatenate(([0], change))
                    ends = np.concatenate((change, [len(comb)]))
                    counts = ends - starts
                    gids = g[starts]

                    pos = np.arange(len(comb)) - np.repeat(starts, counts)
                    keep_per_group = (counts // 5) * 5
                    keep = pos < np.repeat(keep_per_group, counts)

                    full = comb[keep]
                    if len(full):
                        groups5 = full.reshape(-1, 5)
                        med_order = np.argsort(composite(groups5), axis=1)
                        writer.write(
                            groups5[np.arange(len(groups5)), med_order[:, 2]]
                        )
                    sigma_sizes[gids] += counts // 5

                    # New carry: each present group's trailing count % 5.
                    left = comb[~keep]
                    lpos = (pos - np.repeat(keep_per_group, counts))[~keep]
                    carry_cnt[gids] = counts % 5
                    carry[left["grp"], lpos] = left
            # Flush trailing partial subgroups: their (lower) median.
            for g in np.flatnonzero(carry_cnt):
                rest = carry[g, : carry_cnt[g]]
                rest = rest[np.argsort(composite(rest), kind="stable")]
                writer.write(rest[(len(rest) - 1) // 2 : (len(rest) + 1) // 2])
                sigma_sizes[g] += 1
            sigma = writer.close()
    finally:
        carry_lease.release()
    return sigma, sigma_sizes
