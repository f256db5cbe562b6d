"""Unit tests for the delivery funnel: dedup, waking hours, fatigue."""

import pytest

from repro.core.recommendation import Recommendation
from repro.delivery import (
    DedupFilter,
    DeliveryPipeline,
    FatigueFilter,
    PushNotifier,
    WakingHoursFilter,
)

HOUR = 3600.0
DAY = 86_400.0


def rec(recipient=1, candidate=2, created_at=0.0):
    return Recommendation(recipient=recipient, candidate=candidate, created_at=created_at)


class TestDedupFilter:
    def test_first_pass_allowed_repeat_blocked(self):
        dedup = DedupFilter(window=DAY)
        assert dedup.allow(rec(), now=0.0)
        assert not dedup.allow(rec(), now=100.0)

    def test_allowed_again_after_window(self):
        dedup = DedupFilter(window=100.0)
        assert dedup.allow(rec(), now=0.0)
        assert dedup.allow(rec(), now=101.0)

    def test_distinct_pairs_independent(self):
        dedup = DedupFilter()
        assert dedup.allow(rec(recipient=1, candidate=2), now=0.0)
        assert dedup.allow(rec(recipient=1, candidate=3), now=0.0)
        assert dedup.allow(rec(recipient=2, candidate=2), now=0.0)

    def test_prune_bounds_memory(self):
        dedup = DedupFilter(window=10.0)
        for i in range(12_000):
            dedup.allow(rec(recipient=i, candidate=0), now=float(i))
        # Pairs older than `window` are evicted whenever the table needs
        # room, so residency tracks the window, not the 12k inserts.
        assert dedup.tracked_pairs() < 2_000

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            DedupFilter(window=0.0)


class TestWakingHoursFilter:
    def test_awake_during_waking_hours(self):
        waking = WakingHoursFilter(waking_start_hour=8, waking_end_hour=23)
        user = 5
        offset = waking.timezone_offset_hours(user)
        # Construct a UTC timestamp that is local noon for this user.
        local_noon_utc = ((12 - offset) % 24) * HOUR
        assert waking.is_awake(user, local_noon_utc)
        assert waking.allow(rec(recipient=user), local_noon_utc)

    def test_asleep_at_local_4am(self):
        waking = WakingHoursFilter()
        user = 5
        offset = waking.timezone_offset_hours(user)
        local_4am_utc = ((4 - offset) % 24) * HOUR
        assert not waking.is_awake(user, local_4am_utc)

    def test_timezones_deterministic_and_spread(self):
        waking = WakingHoursFilter()
        offsets = {waking.timezone_offset_hours(u) for u in range(500)}
        assert all(-11 <= o <= 12 for o in offsets)
        assert len(offsets) > 12  # many distinct zones in use
        assert waking.timezone_offset_hours(7) == waking.timezone_offset_hours(7)

    def test_salt_changes_assignment(self):
        base = WakingHoursFilter()
        salted = WakingHoursFilter(timezone_salt=99)
        changed = sum(
            base.timezone_offset_hours(u) != salted.timezone_offset_hours(u)
            for u in range(200)
        )
        assert changed > 100

    def test_fraction_awake_matches_interval_length(self):
        waking = WakingHoursFilter(waking_start_hour=8, waking_end_hour=23)
        awake = sum(
            waking.is_awake(user, hour * HOUR)
            for user in range(100)
            for hour in range(24)
        )
        assert awake / 2400 == pytest.approx(15 / 24, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            WakingHoursFilter(waking_start_hour=25)
        with pytest.raises(ValueError):
            WakingHoursFilter(waking_start_hour=12, waking_end_hour=10)


class TestFatigueFilter:
    def test_cap_enforced(self):
        fatigue = FatigueFilter(max_per_window=2, window=DAY)
        assert fatigue.allow(rec(candidate=1), now=0.0)
        assert fatigue.allow(rec(candidate=2), now=100.0)
        assert not fatigue.allow(rec(candidate=3), now=200.0)

    def test_window_rolls(self):
        fatigue = FatigueFilter(max_per_window=1, window=100.0)
        assert fatigue.allow(rec(candidate=1), now=0.0)
        assert not fatigue.allow(rec(candidate=2), now=50.0)
        assert fatigue.allow(rec(candidate=3), now=150.0)

    def test_users_independent(self):
        fatigue = FatigueFilter(max_per_window=1)
        assert fatigue.allow(rec(recipient=1), now=0.0)
        assert fatigue.allow(rec(recipient=2), now=0.0)

    def test_sent_in_window(self):
        fatigue = FatigueFilter(max_per_window=5, window=100.0)
        fatigue.allow(rec(candidate=1), now=0.0)
        fatigue.allow(rec(candidate=2), now=90.0)
        assert fatigue.sent_in_window(1, now=95.0) == 2
        assert fatigue.sent_in_window(1, now=150.0) == 1
        assert fatigue.sent_in_window(99, now=0.0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FatigueFilter(max_per_window=0)
        with pytest.raises(ValueError):
            FatigueFilter(window=-1.0)


class TestDeliveryPipeline:
    def awake_time_for(self, pipeline: DeliveryPipeline, user: int) -> float:
        waking = next(
            f for f in pipeline.filters if isinstance(f, WakingHoursFilter)
        )
        offset = waking.timezone_offset_hours(user)
        return ((12 - offset) % 24) * HOUR

    def test_happy_path_delivers(self):
        pipeline = DeliveryPipeline()
        now = self.awake_time_for(pipeline, user=1)
        notification = pipeline.offer(rec(recipient=1), now)
        assert notification is not None
        assert pipeline.funnel.get("raw") == 1
        assert pipeline.funnel.get("delivered") == 1
        assert pipeline.notifier.delivered_total == 1

    def test_duplicate_dropped_at_dedup(self):
        pipeline = DeliveryPipeline()
        now = self.awake_time_for(pipeline, user=1)
        pipeline.offer(rec(recipient=1), now)
        assert pipeline.offer(rec(recipient=1), now + 1) is None
        assert pipeline.funnel.get("dropped:dedup") == 1

    def test_sleeping_user_suppressed(self):
        pipeline = DeliveryPipeline()
        waking = next(
            f for f in pipeline.filters if isinstance(f, WakingHoursFilter)
        )
        user = 3
        offset = waking.timezone_offset_hours(user)
        local_3am = ((3 - offset) % 24) * HOUR
        assert pipeline.offer(rec(recipient=user), local_3am) is None
        assert pipeline.funnel.get("dropped:waking_hours") == 1

    def test_fatigue_caps_daily_pushes(self):
        pipeline = DeliveryPipeline(
            filters=[DedupFilter(), FatigueFilter(max_per_window=2)]
        )
        for candidate in range(5):
            pipeline.offer(rec(recipient=1, candidate=candidate), now=float(candidate))
        assert pipeline.notifier.delivered_total == 2
        assert pipeline.funnel.get("dropped:fatigue") == 3

    def test_offer_all(self):
        pipeline = DeliveryPipeline(filters=[DedupFilter()])
        batch = [rec(recipient=1, candidate=c) for c in range(3)]
        delivered = pipeline.offer_all(batch, now=0.0)
        assert len(delivered) == 3

    def test_reduction_ratio(self):
        pipeline = DeliveryPipeline(filters=[DedupFilter()])
        for _ in range(10):
            pipeline.offer(rec(), now=0.0)  # 1 passes, 9 deduped
        assert pipeline.reduction_ratio() == 10.0

    def test_notifier_counters(self):
        notifier = PushNotifier()
        pipeline = DeliveryPipeline(filters=[], notifier=notifier)
        pipeline.offer(rec(recipient=1, candidate=1, created_at=5.0), now=8.0)
        pipeline.offer(rec(recipient=1, candidate=2), now=9.0)
        pipeline.offer(rec(recipient=2, candidate=1), now=9.0)
        assert notifier.unique_recipients() == 2
        assert notifier.max_per_user() == 2
        assert notifier.notifications[0].latency == 3.0

    def test_notifier_keep_at_most(self):
        notifier = PushNotifier(keep_at_most=2)
        pipeline = DeliveryPipeline(filters=[], notifier=notifier)
        for c in range(5):
            pipeline.offer(rec(recipient=1, candidate=c), now=0.0)
        assert len(notifier.notifications) == 2
        assert notifier.delivered_total == 5
