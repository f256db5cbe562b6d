"""Sorted-list intersection and k-overlap kernels.

This is the inner loop of motif detection.  The paper keeps S's adjacency
lists sorted precisely so that "intersections can be implemented efficiently
using well-known algorithms"; this module provides those algorithms plus the
generalisation the production semantics needs.

Two problem shapes appear:

* **Intersection** of ``n`` sorted lists — the paper's worked example, where
  exactly ``k`` lists participate (every fresh ``B`` must contribute).
* **k-overlap**: given ``n >= k`` sorted lists, find the values present in at
  least ``k`` of them.  This is the production semantics ("if more than k of
  them follow an account C"): an ``A`` should be notified when *at least* k of
  its followings are among the fresh ``B``s, even if some fresh ``B``s are
  accounts ``A`` does not follow.

All functions take sorted sequences of distinct non-negative ints and return
sorted lists.  Benchmark E11 ablates the algorithm choices.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Sequence

import numpy as np

IdList = Sequence[int]


def intersect_merge(a: IdList, b: IdList) -> list[int]:
    """Linear two-pointer merge intersection: O(|a| + |b|).

    The algorithm of choice when the lists are of comparable length.
    """
    result: list[int] = []
    i, j = 0, 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        value_a, value_b = a[i], b[j]
        if value_a == value_b:
            result.append(value_a)
            i += 1
            j += 1
        elif value_a < value_b:
            i += 1
        else:
            j += 1
    return result


def intersect_galloping(a: IdList, b: IdList) -> list[int]:
    """Galloping (exponential-search) intersection: O(|a| log(|b| / |a|)).

    Wins when one list is much shorter than the other — e.g. intersecting a
    normal user's followers with a celebrity hub's millions of followers.
    The shorter list drives; for each of its values we gallop forward in the
    longer list.
    """
    if len(a) > len(b):
        a, b = b, a
    result: list[int] = []
    low = 0
    len_b = len(b)
    for value in a:
        # Exponential probe from the current frontier.
        step = 1
        high = low
        while high < len_b and b[high] < value:
            low = high
            high += step
            step <<= 1
        position = bisect_left(b, value, low, min(high + 1, len_b))
        if position < len_b and b[position] == value:
            result.append(value)
            low = position + 1
        else:
            low = position
        if low >= len_b:
            break
    return result


def intersect_hash(a: IdList, b: IdList) -> list[int]:
    """Hash-set intersection; ignores sortedness, output re-sorted.

    Included as the ablation's unsorted strawman: competitive for tiny
    inputs, but pays hashing and re-sorting costs at scale.
    """
    if len(a) > len(b):
        a, b = b, a
    lookup = set(b)
    return sorted(value for value in a if value in lookup)


#: Length-ratio beyond which :func:`intersect_sorted` switches from the
#: linear merge to galloping search.  Chosen by the E11 ablation: merge is
#: cheaper until the longer list is roughly an order of magnitude larger.
GALLOP_RATIO = 8.0


def intersect_sorted(a: IdList, b: IdList) -> list[int]:
    """Adaptive intersection: merge for balanced lists, galloping for skewed.

    This is the dispatch the engine uses in production paths.
    """
    if not len(a) or not len(b):
        # len() rather than truthiness: inputs may be numpy arrays (S
        # serves arena slices), whose bool() is ambiguous.
        return []
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    if len(long_) >= GALLOP_RATIO * len(short):
        return intersect_galloping(short, long_)
    return intersect_merge(a, b)


def intersect_many(lists: Sequence[IdList]) -> list[int]:
    """Intersect ``n`` sorted lists, smallest-first for early termination.

    Ordering by ascending length keeps the running intersection as small as
    possible; the loop exits the moment it empties.
    """
    if not lists:
        return []
    ordered = sorted(lists, key=len)
    result = list(ordered[0])
    for other in ordered[1:]:
        if not result:
            break
        result = intersect_sorted(result, other)
    return result


def k_overlap_scancount(lists: Sequence[IdList], k: int) -> list[int]:
    """Values present in >= *k* of the lists, by counting occurrences.

    ScanCount: a single dictionary of value -> multiplicity.  O(total input)
    time regardless of how the matches are distributed, at the cost of a hash
    entry per distinct value seen.
    """
    _check_k(lists, k)
    counts: dict[int, int] = {}
    for values in lists:
        for value in values:
            counts[value] = counts.get(value, 0) + 1
    return sorted(value for value, count in counts.items() if count >= k)


def k_overlap_heap(lists: Sequence[IdList], k: int) -> list[int]:
    """Values present in >= *k* of the lists, by sorted multiway merge.

    Classic heap merge over the sorted inputs; equal values arrive
    consecutively, so a run-length count suffices.  O(total * log n) time
    but no per-distinct-value hash table, and the output needs no final
    sort — preferable when inputs are long and matches are rare.
    """
    _check_k(lists, k)
    merged = heapq.merge(*lists)
    result: list[int] = []
    current: int | None = None
    run = 0
    for value in merged:
        if value == current:
            run += 1
        else:
            if current is not None and run >= k:
                result.append(current)
            current = value
            run = 1
    if current is not None and run >= k:
        result.append(current)
    return result


def k_overlap_arrays(arrays: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Vectorised k-overlap over ready-made int64 arrays, as an array.

    The batched detector's inner kernel: one concatenate + in-place sort,
    then one k-apart comparison — a value occurs >= *k* times in the sorted
    multiset iff some slot of it equals the slot ``k - 1`` further on.
    Most cold triggers have no such slot and return right there, after one
    ``np.count_nonzero`` (cheaper than ``.any()`` on arrays this short).
    A value in ``m > k`` lists matches at ``m - k + 1`` consecutive slots,
    so the matches are de-duplicated; for ``k == 1`` that pass alone is
    the distinct-values pass.
    Skips :func:`k_overlap_numpy`'s per-call list->array conversions and
    ``np.unique`` wrapper overhead, which dominate at hot-path call rates.
    Returns the qualifying values ascending (an empty int64 array when
    none qualify); inputs must be non-empty int64 arrays of sorted
    distinct ids (``len(arrays) >= k >= 1``).
    """
    stacked = np.concatenate(arrays)
    stacked.sort()
    if k > 1:
        ahead = stacked[k - 1 :]
        matches = ahead == stacked[: len(ahead)]
        if not np.count_nonzero(matches):
            return np.empty(0, dtype=np.int64)
        stacked = ahead[matches]
    distinct = np.empty(len(stacked), dtype=bool)
    distinct[0] = True
    np.not_equal(stacked[1:], stacked[:-1], out=distinct[1:])
    return stacked[distinct]


def k_overlap_numpy(lists: Sequence[IdList], k: int) -> list[int]:
    """Vectorised k-overlap via concatenate + unique counts.

    Fastest for large inputs when the lists are already numpy arrays;
    included for the E11 ablation and for bulk offline (batch) detection.
    """
    _check_k(lists, k)
    arrays = [np.asarray(values, dtype=np.int64) for values in lists if len(values)]
    if not arrays:
        return []
    stacked = np.concatenate(arrays)
    values, counts = np.unique(stacked, return_counts=True)
    return values[counts >= k].tolist()


def _check_k(lists: Sequence[IdList], k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(lists):
        raise ValueError(
            f"k={k} exceeds the number of lists ({len(lists)}): "
            "no value can appear in more lists than exist"
        )
