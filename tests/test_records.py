"""Unit and property tests for the record representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em.records import (
    KEY_MAX,
    KEY_MIN,
    RAW_DTYPE,
    RECORD_DTYPE,
    UID_MAX,
    check_record_layout,
    composite,
    composite_of,
    concat_records,
    copy_records,
    empty_records,
    make_records,
    sort_records,
    take_records,
)


class TestMakeRecords:
    def test_basic_fields(self):
        r = make_records(np.array([5, 3, 9]))
        assert r.dtype == RECORD_DTYPE
        assert list(r["key"]) == [5, 3, 9]
        assert list(r["uid"]) == [0, 1, 2]
        assert list(r["grp"]) == [0, 0, 0]

    def test_explicit_uids_and_groups(self):
        r = make_records(np.array([1, 1]), uids=np.array([7, 9]), grps=np.array([2, 3]))
        assert list(r["uid"]) == [7, 9]
        assert list(r["grp"]) == [2, 3]

    def test_scalar_group(self):
        r = make_records(np.array([1, 2]), grps=5)
        assert list(r["grp"]) == [5, 5]

    def test_empty(self):
        r = make_records(np.array([], dtype=np.int64))
        assert len(r) == 0

    def test_key_range_enforced(self):
        with pytest.raises(ValueError):
            make_records(np.array([KEY_MAX + 1]))
        with pytest.raises(ValueError):
            make_records(np.array([KEY_MIN - 1]))

    def test_uid_range_enforced(self):
        with pytest.raises(ValueError):
            make_records(np.array([1]), uids=np.array([UID_MAX + 1]))
        with pytest.raises(ValueError):
            make_records(np.array([1]), uids=np.array([-1]))

    def test_boundary_values_accepted(self):
        r = make_records(
            np.array([KEY_MIN, KEY_MAX]), uids=np.array([0, UID_MAX])
        )
        assert len(r) == 2

    def test_rejects_2d_keys(self):
        with pytest.raises(ValueError):
            make_records(np.zeros((2, 2), dtype=np.int64))

    def test_uid_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_records(np.array([1, 2]), uids=np.array([1]))


class TestComposite:
    @given(
        keys=st.lists(st.integers(KEY_MIN, KEY_MAX), min_size=2, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_composite_respects_lexicographic_order(self, keys):
        r = make_records(np.array(keys, dtype=np.int64))
        comps = composite(r)
        lex = np.lexsort((r["uid"], r["key"]))
        assert np.array_equal(np.argsort(comps, kind="stable"), lex)

    @given(
        keys=st.lists(st.integers(-100, 100), min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_composite_injective(self, keys):
        r = make_records(np.array(keys, dtype=np.int64))
        comps = composite(r)
        assert len(np.unique(comps)) == len(comps)

    def test_composite_of_matches_vectorized(self):
        r = make_records(np.array([42]), uids=np.array([17]))
        assert composite_of(42, 17) == int(composite(r)[0])

    def test_boundary_no_overflow(self):
        r = make_records(
            np.array([KEY_MIN, KEY_MAX]), uids=np.array([UID_MAX, UID_MAX])
        )
        comps = composite(r)
        assert comps[0] < comps[1]
        assert comps.dtype == np.int64


class TestSortConcat:
    def test_sort_records_total_order(self):
        r = make_records(np.array([3, 1, 3, 2]))
        s = sort_records(r)
        assert list(s["key"]) == [1, 2, 3, 3]
        # Equal keys ordered by uid.
        assert list(s["uid"]) == [1, 3, 0, 2]

    def test_sort_is_copy(self):
        r = make_records(np.array([2, 1]))
        s = sort_records(r)
        s["key"][0] = 99
        assert r["key"][1] == 1

    def test_concat_empty_list(self):
        assert len(concat_records([])) == 0

    def test_concat(self):
        a = make_records(np.array([1]))
        b = make_records(np.array([2, 3]))
        assert len(concat_records([a, b])) == 3

    def test_empty_records(self):
        assert len(empty_records()) == 0
        assert empty_records(5).dtype == RECORD_DTYPE


class TestRawMoves:
    """The raw copy/take helpers equal their structured counterparts
    byte for byte, on any layout of input."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(7)
        r = make_records(
            rng.integers(KEY_MIN, KEY_MAX, size=41),
            rng.permutation(41),
            rng.integers(0, 5, size=41),
        )
        return {
            "contiguous": r,
            "strided": r[::2],
            "reversed": r[::-1],
            "empty": r[:0],
        }

    @staticmethod
    def _assert_fresh_equal(got, want, source):
        assert got.dtype == RECORD_DTYPE
        assert got.tobytes() == want.tobytes()
        assert got.flags.writeable
        assert not np.shares_memory(got, source)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed", "empty"])
    def test_copy_records(self, layout):
        recs = self._inputs()[layout]
        self._assert_fresh_equal(copy_records(recs), recs.copy(), recs)

    @pytest.mark.parametrize("layout", ["contiguous", "strided", "reversed", "empty"])
    def test_take_records_int_and_bool(self, layout):
        recs = self._inputs()[layout]
        n = len(recs)
        rng = np.random.default_rng(n)
        indexes = [
            rng.permutation(n),
            rng.integers(0, max(n, 1), size=2 * n) if n else np.arange(0),
            np.arange(n)[::-1],
            np.arange(0),
            rng.random(n) < 0.5,
            np.ones(n, dtype=bool),
            np.zeros(n, dtype=bool),
        ]
        for idx in indexes:
            self._assert_fresh_equal(take_records(recs, idx), recs[idx], recs)

    def test_raw_dtype_is_one_record(self):
        assert RAW_DTYPE.itemsize == RECORD_DTYPE.itemsize
        assert RAW_DTYPE.names is None


class TestRecordLayout:
    def test_record_dtype_passes(self):
        check_record_layout(RECORD_DTYPE)

    def test_rejects_padded_dtype(self):
        aligned = np.dtype([("key", np.int64), ("tag", np.int8)], align=True)
        with pytest.raises(TypeError, match="padding"):
            check_record_layout(aligned)

    def test_rejects_trailing_padding(self):
        padded = np.dtype(
            {
                "names": ["key", "uid", "grp"],
                "formats": [np.int64] * 3,
                "offsets": [0, 8, 16],
                "itemsize": 32,
            }
        )
        with pytest.raises(TypeError, match="padding"):
            check_record_layout(padded)

    def test_rejects_overlap_and_non_structured(self):
        # Field sizes sum to the itemsize, but uid overlaps key and
        # bytes 8..16 belong to no field.
        overlap = np.dtype(
            {
                "names": ["key", "uid", "grp"],
                "formats": [np.int64] * 3,
                "offsets": [0, 0, 16],
                "itemsize": 24,
            }
        )
        with pytest.raises(TypeError, match="offset"):
            check_record_layout(overlap)
        with pytest.raises(TypeError):
            check_record_layout(np.dtype(np.int64))
