"""Randomized sampling and Las Vegas splitters — the practical comparator.

The paper's algorithms are deterministic; production systems usually
sample.  This module implements the randomized route honestly inside the
model, so the ABL5 ablation can measure the trade:

* :func:`reservoir_sample` — an exactly-uniform sample in one scan
  (Vitter's reservoir, ``O(N/B)`` I/Os, ``s`` leased records);
* :func:`block_sample` — the cheap variant: read ``ceil(s/B)`` random
  blocks (``O(s/B)`` I/Os, but samples are *clustered by block*, which
  is exactly the bias the deterministic machinery avoids);
* :func:`randomized_splitters` — Las Vegas approximate K-splitters:
  sample (Chernoff-sized via
  :func:`~repro.bounds.probabilistic.sample_size_for_window`), take the
  sample's quantiles, then *verify* the induced bucket sizes with one
  counting scan and resample on failure.  The output is therefore always
  correct; only the cost is random (expected ``O(N/B)`` for ``δ < 1/2``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..em.comparisons import cmp_search, cmp_sort
from ..em.errors import SpecError
from ..em.file import EMFile
from ..em.records import composite, empty_records
from ..em.streams import BlockReader
from ..bounds.probabilistic import sample_size_for_window
from .inmemory import select_at_ranks

if TYPE_CHECKING:  # pragma: no cover
    from ..em.machine import Machine

__all__ = ["reservoir_sample", "block_sample", "randomized_splitters"]


def reservoir_sample(
    machine: "Machine", file: EMFile, size: int, seed: int = 0
) -> np.ndarray:
    """Uniform sample without replacement, one scan (Vitter's reservoir)."""
    n = len(file)
    if not 1 <= size <= n:
        raise SpecError(f"need 1 <= size <= {n}")
    rng = np.random.default_rng(seed)
    from ..em.records import RECORD_DTYPE

    with machine.memory.lease(size, "reservoir"):
        reservoir = np.empty(size, dtype=RECORD_DTYPE)
        filled = 0
        seen = 0
        with BlockReader(file, "reservoir-scan") as reader:
            for block in reader:
                start = 0
                if filled < size:
                    take = min(size - filled, len(block))
                    reservoir[filled : filled + take] = block[:take]
                    filled += take
                    seen += take
                    start = take
                rest = block[start:]
                # Algorithm R: record with global index `seen + i`
                # (0-based) replaces a uniform slot with probability
                # size / (seen + i + 1).
                m = len(rest)
                if m:
                    positions = seen + 1 + np.arange(m)
                    draws = rng.integers(0, positions)
                    hits = np.flatnonzero(draws < size)
                    for h in hits:  # sequential by definition of the process
                        reservoir[draws[h]] = rest[h]
                    seen += m
        return reservoir.copy()


def block_sample(
    machine: "Machine", file: EMFile, size: int, seed: int = 0
) -> np.ndarray:
    """Cheap clustered sample: ``ceil(size/B)`` random whole blocks.

    Costs only ``O(size/B)`` I/Os but the sample is *not* uniform over
    subsets — records in one block are perfectly correlated.  Fine for
    randomly ordered inputs, badly biased for sorted/clustered ones
    (the ABL5 ablation shows this).
    """
    n = len(file)
    if not 1 <= size <= n:
        raise SpecError(f"need 1 <= size <= {n}")
    rng = np.random.default_rng(seed)
    n_blocks = -(-size // machine.B)
    chosen = rng.choice(file.num_blocks, size=min(n_blocks, file.num_blocks),
                        replace=False)
    with machine.memory.lease(n_blocks * machine.B, "block-sample"):
        parts = [file.read_block(int(i)) for i in chosen]
        sample = machine.kernel.concat(parts)
    idx = rng.permutation(len(sample))[:size]
    return sample[idx]


def randomized_splitters(
    machine: "Machine",
    file: EMFile,
    k: int,
    a: int,
    b: int,
    delta: float = 0.05,
    seed: int = 0,
    max_attempts: int = 20,
    sampler=None,
) -> tuple[np.ndarray, int]:
    """Las Vegas approximate K-splitters via random sampling.

    Returns ``(splitters, attempts)``.  Each attempt samples
    ``sample_size_for_window(N, K, a, b, delta)`` records, takes the
    sample's ``1/K``-quantiles as candidate splitters, and *verifies*
    the induced bucket sizes in one counting scan; failures resample
    with a fresh seed.  Output correctness is unconditional; ``delta``
    only tunes the expected number of attempts.
    """
    if sampler is None:
        sampler = reservoir_sample
    n = len(file)
    if k == 1:
        return empty_records(0), 1
    # The δ-calibrated sample must be memory-resident; cap it at M/2.
    # Correctness is unaffected (the verification scan rejects bad
    # draws) — a capped sample only raises the expected attempt count.
    s = min(n, machine.M // 2, sample_size_for_window(n, k, a, b, delta))
    for attempt in range(1, max_attempts + 1):
        sample = sampler(machine, file, s, seed=seed + attempt)
        with machine.memory.lease(len(sample) + k, "rand-splitters"):
            cmp_sort(machine, len(sample))
            srt = machine.kernel.sort_by_composite(sample)
            positions = np.unique(
                np.clip(
                    np.round(np.arange(1, k) * len(srt) / k).astype(np.int64),
                    1,
                    len(srt),
                )
            )
            # ascending ranks of a sorted sample: already in order
            candidates = select_at_ranks(machine, srt, positions)
            if len(candidates) != k - 1:
                continue  # duplicate positions from a tiny sample
            # Verification scan: exact induced bucket sizes.
            cand_comps = composite(candidates)
            sizes = np.zeros(k, dtype=np.int64)
            with BlockReader(file, "rand-verify") as reader:
                for block in reader:
                    cmp_search(machine, len(block), k)
                    j = machine.kernel.bucket_of(block, cand_comps)
                    np.add.at(sizes, j, 1)
            if sizes.min() >= a and sizes.max() <= b:
                return candidates, attempt
    raise SpecError(
        f"no valid splitters after {max_attempts} attempts — window "
        f"[{a}, {b}] too tight for sampling (use the deterministic "
        "algorithms)"
    )
