"""Tests for the operational Theorem 1 adversary."""

import numpy as np
import pytest

from repro.analysis.verify import VerificationError, check_splitters
from repro.bounds.adversary import fool_right_grounded
from repro.core.splitters import right_grounded_splitters
from repro.em import Machine, composite
from repro.em.records import make_records, sort_records
from repro.workloads import load_input, random_permutation


def record_level_seen(machine, file):
    """Indices of records in blocks read since ``start_trace``."""
    seen = []
    read = {bid for op, bid in machine.disk.stop_trace() if op == "r"}
    B = machine.B
    for i, bid in enumerate(file.block_ids):
        if bid in read:
            seen.extend(range(i * B, min((i + 1) * B, len(file))))
    return seen


class TestOurAlgorithmIsImmune:
    @pytest.mark.parametrize("k,a", [(16, 4), (64, 16), (8, 100)])
    def test_right_grounded_cannot_be_fooled(self, k, a):
        mach = Machine(memory=4096, block=64)
        recs = random_permutation(20_000, seed=30)
        f = load_input(mach, recs)
        mach.disk.start_trace()
        res = right_grounded_splitters(mach, f, k, a)
        seen = record_level_seen(mach, f)
        # Even though the algorithm read only a fraction of the input...
        assert len(seen) < len(recs)
        # ...every partition holds >= a seen elements: fooling impossible.
        assert fool_right_grounded(recs, seen, res.splitters, a) is None


class TestLazyAlgorithmIsFooled:
    def test_strawman_gets_fooled(self):
        # Strawman: read only the first block and use its smallest K-1
        # records as "splitters" — sublinear, but it never guaranteed a
        # seen elements per partition.
        mach = Machine(memory=4096, block=64)
        n, k, a = 20_000, 8, 16
        recs = random_permutation(n, seed=31)
        f = load_input(mach, recs)
        mach.disk.start_trace()
        block = f.read_block(0)
        splitters = sort_records(block)[: k - 1]
        seen = record_level_seen(mach, f)

        fooled = fool_right_grounded(recs, seen, splitters, a)
        assert fooled is not None
        # The adversary's instance really breaks the output...
        with pytest.raises(VerificationError):
            check_splitters(fooled, _remap(fooled, splitters), a, n, k)
        # ...while preserving the relative order of everything the
        # strawman actually saw (its comparisons still hold).
        orig_seen = recs[np.asarray(seen)]
        new_seen = fooled[np.asarray(seen)]
        assert np.array_equal(
            np.argsort(composite(orig_seen)), np.argsort(composite(new_seen))
        )

    def test_fooling_threshold_matches_theorem(self):
        # An algorithm that sees everything is always immune.
        mach = Machine(memory=4096, block=64)
        n, k, a = 2_000, 4, 100
        recs = random_permutation(n, seed=32)
        srt = sort_records(recs)
        splitters = srt[[499, 999, 1499]]
        all_seen = range(n)
        assert fool_right_grounded(recs, all_seen, splitters, a) is None
        # The same splitters with too few other seen elements are foolable
        # (the splitters themselves must have been read — outputting an
        # unseen record is an invalid execution and is rejected).
        splitter_positions = [
            int(np.flatnonzero(recs["uid"] == u)[0]) for u in splitters["uid"]
        ]
        few_seen = list(range(100)) + splitter_positions
        assert fool_right_grounded(recs, few_seen, splitters, a) is not None
        with pytest.raises(ValueError, match="never read"):
            fool_right_grounded(recs, range(1), splitters, a)


def _remap(fooled, splitters):
    """The splitter records under the adversary's reassigned keys."""
    uid_to_pos = {int(u): i for i, u in enumerate(fooled["uid"])}
    return fooled[[uid_to_pos[int(u)] for u in splitters["uid"]]]
