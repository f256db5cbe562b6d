"""Unit + property tests for the intersection / k-overlap kernels.

These kernels are the inner loop of motif detection; every algorithm must
agree with the obvious set-based reference on arbitrary inputs.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.graph.intersect import (
    intersect_galloping,
    intersect_hash,
    intersect_many,
    intersect_merge,
    intersect_sorted,
    k_overlap_arrays,
    k_overlap_heap,
    k_overlap_numpy,
    k_overlap_scancount,
)

PAIR_ALGORITHMS = [
    intersect_merge,
    intersect_galloping,
    intersect_hash,
    intersect_sorted,
]

K_OVERLAP_ALGORITHMS = [
    k_overlap_scancount,
    k_overlap_heap,
    k_overlap_numpy,
]

sorted_ids = st.lists(
    st.integers(min_value=0, max_value=200), unique=True, max_size=60
).map(sorted)

TOP_ID = 2**63 - 1


@st.composite
def overlapping_lists(draw):
    """1..12 non-empty sorted lists over one small pool of ids up to
    ``2**63 - 1`` (so they overlap), optionally all sharing one value,
    and a k from 1 to the number of lists."""
    pool = draw(
        st.lists(st.integers(0, TOP_ID), unique=True, min_size=1, max_size=16)
    )
    members = st.lists(
        st.sampled_from(pool), unique=True, min_size=1, max_size=len(pool)
    )
    lists = draw(st.lists(members, min_size=1, max_size=12))
    if draw(st.booleans()):
        lists = [set(values) | {pool[0]} for values in lists]
    lists = [sorted(values) for values in lists]
    return lists, draw(st.integers(1, len(lists)))


def reference_intersection(lists):
    if not lists:
        return []
    common = set(lists[0])
    for other in lists[1:]:
        common &= set(other)
    return sorted(common)


def reference_k_overlap(lists, k):
    counts = {}
    for values in lists:
        for v in set(values):
            counts[v] = counts.get(v, 0) + 1
    return sorted(v for v, c in counts.items() if c >= k)


class TestPairwiseIntersection:
    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    def test_basic(self, algo):
        assert algo([1, 3, 5, 7], [3, 4, 5, 8]) == [3, 5]

    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    def test_disjoint(self, algo):
        assert algo([1, 2], [3, 4]) == []

    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    def test_empty_sides(self, algo):
        assert algo([], [1, 2]) == []
        assert algo([1, 2], []) == []
        assert algo([], []) == []

    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    def test_identical(self, algo):
        assert algo([2, 4, 6], [2, 4, 6]) == [2, 4, 6]

    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    def test_skewed_lengths(self, algo):
        short = [100, 5_000, 99_999]
        long_ = list(range(0, 100_000, 3))
        expected = sorted(set(short) & set(long_))
        assert algo(short, long_) == expected

    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    @given(a=sorted_ids, b=sorted_ids)
    def test_matches_reference(self, algo, a, b):
        assert algo(a, b) == reference_intersection([a, b])

    @pytest.mark.parametrize("algo", PAIR_ALGORITHMS)
    @given(a=sorted_ids, b=sorted_ids)
    def test_commutative(self, algo, a, b):
        assert algo(a, b) == algo(b, a)

    def test_galloping_first_and_last_elements(self):
        # Regression guard for off-by-one at the gallop frontier.
        long_ = list(range(0, 1000))
        assert intersect_galloping([0], long_) == [0]
        assert intersect_galloping([999], long_) == [999]
        assert intersect_galloping([1000], long_) == []


class TestIntersectMany:
    def test_three_lists(self):
        lists = [[1, 2, 3, 9], [2, 3, 4, 9], [0, 3, 9]]
        assert intersect_many(lists) == [3, 9]

    def test_empty_input(self):
        assert intersect_many([]) == []

    def test_one_empty_list_kills_everything(self):
        assert intersect_many([[1, 2], [], [1]]) == []

    def test_single_list_copied(self):
        original = [1, 5]
        result = intersect_many([original])
        assert result == [1, 5]
        result.append(99)
        assert original == [1, 5]

    @given(st.lists(sorted_ids, min_size=1, max_size=5))
    def test_matches_reference(self, lists):
        assert intersect_many(lists) == reference_intersection(lists)


class TestKOverlap:
    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    def test_threshold_two_of_three(self, algo):
        lists = [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
        assert algo(lists, 2) == [2, 3, 4]
        assert algo(lists, 3) == [3]

    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    def test_k_equals_one_is_union(self, algo):
        lists = [[1, 3], [2], [3]]
        assert algo(lists, 1) == [1, 2, 3]

    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    def test_k_above_list_count_raises(self, algo):
        with pytest.raises(ValueError, match="exceeds"):
            algo([[1], [2]], 3)

    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    def test_k_below_one_raises(self, algo):
        with pytest.raises(ValueError):
            algo([[1]], 0)

    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    def test_empty_lists_allowed(self, algo):
        assert algo([[], [1], [1]], 2) == [1]

    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    @given(
        lists=st.lists(sorted_ids, min_size=1, max_size=5),
        k_fraction=st.floats(0.01, 1.0),
    )
    def test_matches_reference(self, algo, lists, k_fraction):
        k = max(1, round(k_fraction * len(lists)))
        assert algo(lists, k) == reference_k_overlap(lists, k)

    @pytest.mark.parametrize("algo", K_OVERLAP_ALGORITHMS)
    def test_large_straddling_input(self, algo):
        """Thousands of ids per list (hypothesis stays small), the overlap
        straddling all three lists."""
        first = list(range(0, 2048))
        second = list(range(2038, 4082))
        third = list(range(2040, 2044))
        lists = [first, second, third]
        expected = reference_k_overlap(lists, 2)
        assert expected == list(range(2038, 2048))
        assert algo(lists, 2) == expected

    @given(
        lists=st.lists(sorted_ids.filter(len), min_size=1, max_size=5),
        k_fraction=st.floats(0.01, 1.0),
    )
    def test_arrays_kernel_matches_reference(self, lists, k_fraction):
        """The batched detector's array kernel agrees with the others."""
        k = max(1, round(k_fraction * len(lists)))
        arrays = [np.asarray(values, dtype=np.int64) for values in lists]
        assert k_overlap_arrays(arrays, k).tolist() == reference_k_overlap(
            lists, k
        )

    @given(case=overlapping_lists())
    # Twelve one-element lists: one value in all of them (the de-dup at
    # every k < 12), and twelve distinct values (empty unless k == 1).
    @example(case=([[TOP_ID]] * 12, 2))
    @example(case=([[TOP_ID - i] for i in range(12)], 2))
    @example(case=([[TOP_ID - i] for i in range(12)], 1))
    def test_arrays_kernel_wide_ids_many_lists(self, case):
        """Ids up to 2**63 - 1, up to 12 lists, every k: the early empty
        exit and the de-dup of a value in more than k lists both agree
        with the reference, and an empty answer is an int64 array of
        shape ``(0,)``."""
        lists, k = case
        expected = reference_k_overlap(lists, k)
        result = k_overlap_arrays([np.asarray(v, dtype=np.int64) for v in lists], k)
        assert result.dtype == np.int64
        assert result.shape == (len(expected),)
        assert result.tolist() == expected

    @given(lists=st.lists(sorted_ids, min_size=2, max_size=5))
    def test_monotone_in_k(self, lists):
        """Raising k can only shrink the result set."""
        previous = None
        for k in range(1, len(lists) + 1):
            current = set(k_overlap_scancount(lists, k))
            if previous is not None:
                assert current <= previous
            previous = current
