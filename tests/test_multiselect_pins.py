"""Exact model cost of the multi-selection path, pinned.

Theorem 4's base case, Lemma 6's intermixed passes and the general
case's partition stitches read memory-sized chunks (``scan_chunks``),
which is a wall-clock choice only.  Every figure below was recorded while
those scans still read one block per step: answers, reads and writes by
phase, comparisons, the disk and memory peaks, and the read and write
subsequences of the access trace.  Each case runs on three inputs and on
a wide machine and a flat one, where every chunk is a single block.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.intermixed import group_sizes, intermixed_select, max_groups
from repro.core.multiselect import multi_select, multi_select_streamed
from repro.em import EMFile, Machine, SpecError, composite
from repro.em.records import make_records
from repro.workloads import load_input
from repro.workloads.generators import few_distinct, organ_pipe, random_permutation

GENERATORS = {
    "random_permutation": random_permutation,
    "few_distinct": few_distinct,
    "organ_pipe": organ_pipe,
}

#: ``name: (M, B, N)``.  ``flat`` has M = 4B, so every scan's chunk is
#: one block; the streamed variant needs one more block buffer than that
#: leaves, so it runs flat at M = 6B (``narrow``).
SHAPES = {
    "wide": (4096, 64, 20_000),
    "flat": (256, 64, 2_000),
    "narrow": (384, 64, 3_000),
}

#: ``(shape, solver, K)``: K <= m and K > m for ``multi_select``
#: (m = M/32), the rank-file variant with K > m, and L groups for
#: ``intermixed_select``.
CASES = [
    ("wide", "multi_select", 8),
    ("wide", "multi_select", 200),
    ("wide", "streamed", 200),
    ("wide", "intermixed", 8),
    ("flat", "multi_select", 8),
    ("flat", "multi_select", 80),
    ("flat", "intermixed", 8),
    ("narrow", "streamed", 84),
]

#: The scans a chunk lease serves (their reader labels).
CHUNK_LABELS = {
    "gs-scan", "ix-median-scan", "ix-theta", "ix-filter",
    "msel-sizes", "msel-build", "msel-part-in", "msf-part-in",
}

#: ``"shape/solver/K/input": (reads, writes, comparisons, disk peak,
#: memory peak, digests of the answers, the by-phase I/O, the read
#: trace and the write trace)``.
PINS = {
    "wide/multi_select/8/few_distinct": (
        1263, 207, 595427, 453, 4032,
        "38f3c2811408b0e7", "168b8e07562d4c0a", "297ebb766b683163", "2abbc385bf247be1",
    ),
    "wide/multi_select/8/organ_pipe": (
        1263, 207, 595569, 453, 4032,
        "e48e8268d4f559b7", "168b8e07562d4c0a", "297ebb766b683163", "2abbc385bf247be1",
    ),
    "wide/multi_select/8/random_permutation": (
        1263, 207, 595679, 453, 4032,
        "66c5896eb149deab", "168b8e07562d4c0a", "297ebb766b683163", "2abbc385bf247be1",
    ),
    "wide/multi_select/200/few_distinct": (
        2921, 1133, 1172823, 1072, 4032,
        "26eca85ff5dc23b4", "ca00326ad61ae72c", "87d6e00fce71ee24", "fb31740cfea7862f",
    ),
    "wide/multi_select/200/organ_pipe": (
        2932, 1138, 1175261, 1071, 4032,
        "532a4daceda479aa", "e11a44fb80d39975", "c140b6fe60d734c8", "4aa16e8cc2476ff3",
    ),
    "wide/multi_select/200/random_permutation": (
        2923, 1135, 1172648, 1072, 4032,
        "8fbf8660b16eebf8", "71492479e7902bff", "ea32db47f360af0d", "335b62d5646506b8",
    ),
    "wide/streamed/200/few_distinct": (
        2930, 1138, 1170912, 1076, 4032,
        "26eca85ff5dc23b4", "20460d5b9e1ceebe", "fb93c3abe64019c9", "cb550f00c1439f8f",
    ),
    "wide/streamed/200/organ_pipe": (
        2940, 1144, 1172886, 1077, 4032,
        "532a4daceda479aa", "b5b612f222cea757", "39858fc11c182316", "12af426612f91366",
    ),
    "wide/streamed/200/random_permutation": (
        2931, 1137, 1170961, 1073, 4032,
        "8fbf8660b16eebf8", "1dbeca0c365ed7e1", "1441e253c33b2ba7", "935076f8b8affd96",
    ),
    "wide/intermixed/8/few_distinct": (
        2567, 509, 209326, 547, 3968,
        "853661f47a405081", "dabaf487521afe2e", "805cf9d27bf23de4", "d84d4233ae1d9ca5",
    ),
    "wide/intermixed/8/organ_pipe": (
        2558, 504, 207769, 548, 3968,
        "14a06fda364b9285", "417d7e1721a2a5e7", "7de9a4decbf9f2e2", "c8c5cff6fbe793fd",
    ),
    "wide/intermixed/8/random_permutation": (
        2563, 507, 208569, 548, 3968,
        "ebf3b22e636e7e51", "9e6397d9ef489181", "8cd6b865e1ce6e3a", "693312ed068c962f",
    ),
    "flat/multi_select/8/few_distinct": (
        256, 88, 66571, 84, 223,
        "cd8f77ca2c1337d5", "aeab5be509d1ecb2", "a7a206180250559d", "66a94b059cb567d7",
    ),
    "flat/multi_select/8/organ_pipe": (
        254, 84, 66141, 78, 223,
        "a1d1af212b4df311", "a24bd9f93589add9", "e6ecf8c6c07ab012", "da45bac626cfbee0",
    ),
    "flat/multi_select/8/random_permutation": (
        259, 88, 66555, 84, 223,
        "cbc306f74c2c2a07", "dbe7ab8f4d98cb7e", "39b501dac8922079", "66a94b059cb567d7",
    ),
    "flat/multi_select/80/few_distinct": (
        583, 289, 119766, 92, 223,
        "5fef28112071caa9", "218807119096f9bf", "f0a4ea0bcb5c767c", "86c7fcbc2a70693b",
    ),
    "flat/multi_select/80/organ_pipe": (
        575, 287, 118772, 89, 223,
        "d256bcb2bdb5a183", "49dea857ea60ad54", "43b08d9a7d51d886", "efd4278453814c14",
    ),
    "flat/multi_select/80/random_permutation": (
        606, 307, 122019, 94, 223,
        "3d3cbc15fc1e4e57", "4be1b0e5a2c76368", "384f119e34586f98", "e5a704c795df12b6",
    ),
    "flat/intermixed/8/few_distinct": (
        295, 65, 19266, 56, 192,
        "7969b798f9815841", "37cf55b6ee771a04", "26f1f3a47aa110b2", "72e0f82d1b62a440",
    ),
    "flat/intermixed/8/organ_pipe": (
        298, 66, 19455, 56, 192,
        "6c85a5b9b37a0e59", "feabf3742a0a8fe9", "1516612263eb900d", "94276da7042780e2",
    ),
    "flat/intermixed/8/random_permutation": (
        297, 65, 19440, 56, 192,
        "7963bd3e0632fc33", "8e77f3efe900a8d2", "e34b7a8a022510b7", "72e0f82d1b62a440",
    ),
    "narrow/streamed/84/few_distinct": (
        822, 391, 192786, 129, 347,
        "15a3670db0a1ca41", "a599d7234ea4ce60", "d80ca97f327aefff", "5eda58153e257abe",
    ),
    "narrow/streamed/84/organ_pipe": (
        798, 379, 188392, 128, 347,
        "3c80f4e658e0c398", "b8cffa54844050fb", "fd06b37bc6d2cee2", "280d5fb059c6adf1",
    ),
    "narrow/streamed/84/random_permutation": (
        829, 398, 194667, 131, 347,
        "44ab0407ec0ae2e3", "63f32922f282271f", "ac370b460673af34", "554d46ccf4f35a78",
    ),
}


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()[:16]


def _instance(shape: str, solver: str, k: int, gen: str):
    """A machine, its staged input and the solver's argument."""
    M, B, n = SHAPES[shape]
    mach = Machine(memory=M, block=B)
    recs = GENERATORS[gen](n, seed=7)
    rng = np.random.default_rng(11)
    if solver == "intermixed":
        grp = rng.integers(0, k, size=n)
        grp[:k] = np.arange(k)
        recs["grp"] = grp
        arg = rng.integers(1, np.bincount(grp, minlength=k) + 1)
        return mach, load_input(mach, recs), arg
    ranks = np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
    if solver == "streamed":
        return mach, load_input(mach, recs), load_input(mach, make_records(ranks))
    return mach, load_input(mach, recs), ranks


def _solve(mach: Machine, solver: str, f: EMFile, arg) -> np.ndarray:
    if solver == "multi_select":
        return multi_select(mach, f, arg)
    if solver == "intermixed":
        return intermixed_select(mach, f, arg)
    out = multi_select_streamed(mach, f, arg)
    answers = out.to_numpy()
    out.free()
    return answers


def fingerprint(shape: str, solver: str, k: int, gen: str) -> tuple:
    """One run's exact model cost, in the layout of :data:`PINS`."""
    mach, f, arg = _instance(shape, solver, k, gen)
    mach.memory.reset_peak()
    mach.disk.start_trace()
    with mach.measure() as cost:
        answers = _solve(mach, solver, f, arg)
    trace = mach.disk.stop_trace()
    phases = json.dumps(sorted((p, list(rw)) for p, rw in cost.by_phase.items()))
    return (
        cost.reads,
        cost.writes,
        cost.comparisons,
        mach.disk.peak_blocks,
        mach.memory.peak,
        _digest(composite(answers)),
        hashlib.sha256(phases.encode()).hexdigest()[:16],
        _digest([bid for op, bid in trace if op == "r"]),
        _digest([bid for op, bid in trace if op == "w"]),
    )


@pytest.mark.parametrize("gen", sorted(GENERATORS))
@pytest.mark.parametrize("shape,solver,k", CASES)
def test_cost_matches_the_block_at_a_time_scans(shape, solver, k, gen):
    assert fingerprint(shape, solver, k, gen) == PINS[f"{shape}/{solver}/{k}/{gen}"]


@pytest.mark.parametrize(
    "solver,k", [(s, k) for shape, s, k in CASES if shape == "flat"]
)
def test_flat_machine_scans_one_block_per_chunk(solver, k):
    mach, f, arg = _instance("flat", solver, k, "random_permutation")
    sizes: dict[str, set[int]] = {}
    lease = mach.memory.lease

    def spy(size, label=""):
        if label in CHUNK_LABELS:
            sizes.setdefault(label, set()).add(size)
        return lease(size, label)

    mach.memory.lease = spy
    _solve(mach, solver, f, arg)
    assert "gs-scan" in sizes
    assert all(s == {mach.B} for s in sizes.values())


class TestGroupIds:
    """Lemma 6's input carries ``grp`` in ``[0, L)``; anything else is a
    spec error, found by the group-size scan before any selection."""

    @staticmethod
    def _staged(bad: int):
        mach = Machine(memory=4096, block=64)
        keys = np.arange(3000)
        grp = np.where(keys % 3 == 0, bad, keys % 2)
        return mach, load_input(mach, make_records(keys, grps=grp))

    @pytest.mark.parametrize("bad", [-1, 2, 5])
    def test_group_sizes_rejects_ids_outside_range(self, bad):
        mach, f = self._staged(bad)
        with pytest.raises(SpecError, match="group ids"):
            group_sizes(mach, f, 2)
        assert mach.comparisons == 0
        assert mach.memory.in_use == 0

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_intermixed_select_rejects_ids_outside_range(self, bad):
        mach, f = self._staged(bad)
        assert max_groups(mach) >= 2
        with pytest.raises(SpecError, match="group ids"):
            intermixed_select(mach, f, [1, 1])
        assert mach.memory.in_use == 0

    def test_in_range_ids_count_exactly(self):
        mach, f = self._staged(0)
        assert group_sizes(mach, f, 2).tolist() == [2000, 1000]
