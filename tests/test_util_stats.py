"""Unit + property tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.util.stats import OnlineStats, PercentileTracker, describe, percentile


class TestPercentile:
    def test_matches_numpy_on_small_input(self):
        values = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        for q in (0, 10, 50, 90, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_single_element(self):
        assert percentile([7.0], 99) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    @example([5e-324, 5e-324])  # subnormal halves round to 0.0
    def test_median_between_min_and_max(self, values):
        ordered = sorted(values)
        median = percentile(ordered, 50)
        assert ordered[0] <= median <= ordered[-1]


    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(2, 9),
        st.floats(0.0, 100.0),
    )
    @example(5e-324, 2, 50.0)  # 5e-324 * 0.5 rounds to 0.0
    def test_equal_values_give_that_value_at_any_q(self, value, n, q):
        assert percentile([value] * n, q) == value

    @given(
        st.lists(
            st.floats(-1e300, 1e300, allow_subnormal=True), min_size=1, max_size=30
        ),
        st.floats(0.0, 100.0),
    )
    @example([5e-324, 1e-323], 25.0)
    def test_any_q_between_min_and_max(self, values, q):
        ordered = sorted(values)
        assert ordered[0] <= percentile(ordered, q) <= ordered[-1]


class TestOnlineStats:
    def test_mean_and_variance_match_numpy(self):
        values = [1.0, 2.0, 2.0, 3.0, 8.0, -4.0]
        stats = OnlineStats()
        for v in values:
            stats.add(v)
        assert stats.count == len(values)
        assert stats.mean == pytest.approx(float(np.mean(values)))
        assert stats.variance == pytest.approx(float(np.var(values)))
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)

    def test_variance_zero_before_two_samples(self):
        stats = OnlineStats()
        assert stats.variance == 0.0
        stats.add(5.0)
        assert stats.variance == 0.0
        assert stats.stddev == 0.0

    def test_merge_equals_sequential(self):
        left_values = [1.0, 5.0, 2.5]
        right_values = [9.0, -2.0, 0.0, 4.0]
        left, right, both = OnlineStats(), OnlineStats(), OnlineStats()
        for v in left_values:
            left.add(v)
            both.add(v)
        for v in right_values:
            right.add(v)
            both.add(v)
        merged = left.merge(right)
        assert merged.count == both.count
        assert merged.mean == pytest.approx(both.mean)
        assert merged.variance == pytest.approx(both.variance)
        assert merged.minimum == both.minimum
        assert merged.maximum == both.maximum

    def test_merge_with_empty(self):
        stats = OnlineStats()
        stats.add(3.0)
        merged = stats.merge(OnlineStats())
        assert merged.count == 1
        assert merged.mean == 3.0

    @given(
        st.lists(st.floats(-1e3, 1e3), max_size=30),
        st.lists(st.floats(-1e3, 1e3), max_size=30),
    )
    def test_merge_commutative_in_mean(self, xs, ys):
        a, b = OnlineStats(), OnlineStats()
        for v in xs:
            a.add(v)
        for v in ys:
            b.add(v)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.count == ba.count
        if ab.count:
            assert ab.mean == pytest.approx(ba.mean, abs=1e-9)


class TestPercentileTracker:
    def test_exact_until_cap(self):
        tracker = PercentileTracker(max_samples=100)
        for i in range(100):
            tracker.add(float(i))
        assert tracker.is_exact
        assert tracker.median() == pytest.approx(49.5)
        assert tracker.percentile(99) == pytest.approx(98.01)

    def test_reservoir_beyond_cap_stays_close(self):
        tracker = PercentileTracker(max_samples=2_000, seed=7)
        for i in range(20_000):
            tracker.add(float(i))
        assert not tracker.is_exact
        assert len(tracker) == 20_000
        # Uniform data: the median estimate should land near 10_000.
        assert tracker.median() == pytest.approx(10_000, rel=0.10)

    def test_snapshot_keys(self):
        tracker = PercentileTracker()
        for v in (1.0, 2.0, 3.0):
            tracker.add(v)
        snap = tracker.snapshot()
        assert snap["count"] == 3
        assert snap["p50"] == 2.0
        assert snap["min"] == 1.0 and snap["max"] == 3.0

    def test_empty_snapshot_and_percentile(self):
        tracker = PercentileTracker()
        assert tracker.snapshot() == {"count": 0}
        with pytest.raises(ValueError):
            tracker.median()

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            PercentileTracker(max_samples=0)


class TestDescribe:
    def test_fields(self):
        d = describe([4.0, 1.0, 3.0, 2.0])
        assert d.count == 4
        assert d.minimum == 1.0 and d.maximum == 4.0
        assert d.mean == pytest.approx(2.5)
        assert d.p50 == pytest.approx(2.5)
        assert math.isfinite(d.stddev)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            describe([])
