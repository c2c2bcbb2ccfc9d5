"""Unit and property tests for the grouped-index kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.groups import (
    group_boundaries,
    grouped_cartesian,
    grouped_pairs,
    match_sorted_keys,
    segment_sum,
)


class TestGroupBoundaries:
    def test_basic(self):
        keys, offsets = group_boundaries(np.array([1, 1, 3, 3, 3, 7]))
        np.testing.assert_array_equal(keys, [1, 3, 7])
        np.testing.assert_array_equal(offsets, [0, 2, 5, 6])

    def test_single_group(self):
        keys, offsets = group_boundaries(np.array([5, 5, 5]))
        np.testing.assert_array_equal(keys, [5])
        np.testing.assert_array_equal(offsets, [0, 3])

    def test_all_distinct(self):
        keys, offsets = group_boundaries(np.arange(4))
        np.testing.assert_array_equal(keys, np.arange(4))
        np.testing.assert_array_equal(offsets, [0, 1, 2, 3, 4])

    def test_empty(self):
        keys, offsets = group_boundaries(np.array([], dtype=np.int64))
        assert keys.size == 0
        np.testing.assert_array_equal(offsets, [0])


class TestMatchSortedKeys:
    def test_basic(self):
        common, ia, ib = match_sorted_keys(np.array([1, 3, 5]), np.array([3, 4, 5]))
        np.testing.assert_array_equal(common, [3, 5])
        np.testing.assert_array_equal(ia, [1, 2])
        np.testing.assert_array_equal(ib, [0, 2])

    def test_disjoint(self):
        common, ia, ib = match_sorted_keys(np.array([1]), np.array([2]))
        assert common.size == 0

    def test_empty(self):
        common, _, _ = match_sorted_keys(np.array([]), np.array([1, 2]))
        assert common.size == 0

    def test_empty_right(self):
        common, ia, ib = match_sorted_keys(np.array([1, 2]), np.array([]))
        assert common.size == ia.size == ib.size == 0


class TestGroupedCartesian:
    def test_single_group(self):
        ia, ib = grouped_cartesian(
            np.array([0]), np.array([2]), np.array([10]), np.array([3])
        )
        np.testing.assert_array_equal(ia, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(ib, [10, 11, 12, 10, 11, 12])

    def test_multiple_groups(self):
        ia, ib = grouped_cartesian(
            np.array([0, 5]), np.array([1, 2]),
            np.array([0, 7]), np.array([2, 1]),
        )
        np.testing.assert_array_equal(ia, [0, 0, 5, 6])
        np.testing.assert_array_equal(ib, [0, 1, 7, 7])

    def test_empty_groups_skipped(self):
        ia, ib = grouped_cartesian(
            np.array([0, 1]), np.array([0, 2]),
            np.array([0, 3]), np.array([2, 1]),
        )
        np.testing.assert_array_equal(ia, [1, 2])
        np.testing.assert_array_equal(ib, [3, 3])

    def test_no_groups(self):
        ia, ib = grouped_cartesian(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), np.array([], dtype=np.int64),
        )
        assert ia.size == 0 and ib.size == 0

    def test_guard(self):
        with pytest.raises(MemoryError):
            grouped_cartesian(
                np.array([0]), np.array([10_000]),
                np.array([0]), np.array([10_000]),
                max_pairs=1000,
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            grouped_cartesian(np.array([0]), np.array([1, 2]),
                              np.array([0]), np.array([1]))


class TestSegmentSum:
    def test_basic(self):
        keys, sums = segment_sum(np.array([3, 1, 3]), np.array([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(keys, [1, 3])
        np.testing.assert_array_equal(sums, [2.0, 5.0])

    def test_empty(self):
        keys, sums = segment_sum(np.array([]), np.array([]))
        assert keys.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            segment_sum(np.array([1, 2]), np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 20), st.floats(-5, 5)), max_size=50)
)
def test_segment_sum_matches_dict(pairs):
    keys = np.array([k for k, _ in pairs], dtype=np.int64)
    vals = np.array([v for _, v in pairs])
    got_k, got_s = segment_sum(keys, vals)
    model = {}
    for k, v in pairs:
        model[k] = model.get(k, 0.0) + v
    assert got_k.tolist() == sorted(model)
    assert got_s.tolist() == pytest.approx([model[k] for k in sorted(model)])


@settings(max_examples=60, deadline=None)
@given(
    groups=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8)
)
def test_grouped_cartesian_matches_nested_loops(groups):
    """Property: the expansion equals the naive per-group double loop."""
    starts_a = np.cumsum([0] + [a for a, _ in groups])[:-1]
    starts_b = np.cumsum([0] + [b for _, b in groups])[:-1]
    counts_a = np.array([a for a, _ in groups], dtype=np.int64)
    counts_b = np.array([b for _, b in groups], dtype=np.int64)
    ia, ib = grouped_cartesian(starts_a, counts_a, starts_b, counts_b)
    expected = []
    for g, (na, nb) in enumerate(groups):
        for i in range(na):
            for j in range(nb):
                expected.append((starts_a[g] + i, starts_b[g] + j))
    assert list(zip(ia.tolist(), ib.tolist())) == expected


@settings(max_examples=100, deadline=None)
@given(
    groups=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 4),
                  st.integers(0, 50), st.integers(0, 4)),
        max_size=10,
    )
)
def test_grouped_pairs_matches_nested_loops(groups):
    """Property: pair order equals the per-group nested loop (``a`` outer,
    ``b`` inner) for arbitrary, overlapping starts and zero-count groups,
    and the factored form repeats back to :func:`grouped_cartesian`."""
    starts_a, counts_a, starts_b, counts_b = (
        np.array([g[k] for g in groups], dtype=np.int64) for k in range(4)
    )
    elems_a, reps, idx_b = grouped_pairs(starts_a, counts_a, starts_b, counts_b)
    expected = [
        (sa + i, sb + j)
        for sa, na, sb, nb in groups
        for i in range(na)
        for j in range(nb)
    ]
    idx_a = np.repeat(elems_a, reps)
    assert list(zip(idx_a.tolist(), idx_b.tolist())) == expected
    assert elems_a.tolist() == [sa + i for sa, na, _, _ in groups for i in range(na)]
    ia, ib = grouped_cartesian(starts_a, counts_a, starts_b, counts_b)
    np.testing.assert_array_equal(ia, idx_a)
    np.testing.assert_array_equal(ib, idx_b)

