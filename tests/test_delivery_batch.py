"""Batch/per-candidate delivery equivalence: the columnar funnel changes
nothing.

``DeliveryPipeline.offer_batch`` exists purely for throughput; these tests
are the guarantee that it is *semantics-preserving* against sequential
``offer`` calls: identical survivors (content and order), identical
per-stage ``FunnelCounter`` accounting (key for key), identical notifier
output, and identical filter state afterwards — across random candidate
streams, random filter configurations, and both funnel entry points
(detector-emitted columnar batches and re-columned boxed lists).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ActionType, Recommendation, RecommendationBatch
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    RecommendationGroup,
)
from repro.delivery import (
    DedupFilter,
    DeliveryFilter,
    DeliveryPipeline,
    FatigueFilter,
    PushNotifier,
    TopKPerUserBuffer,
    WakingHoursFilter,
)
from tests.reference_filters import ReferenceDedup, ReferenceFatigue

HOUR = 3600.0


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def group_strategy(num_users: int = 12, num_candidates: int = 6):
    """One detection group: a recipient audience for a shared candidate."""
    return st.builds(
        lambda recipients, candidate, created_at, via: RecommendationGroup(
            sorted(set(recipients)),
            candidate=candidate,
            created_at=created_at,
            via=tuple(via),
        ),
        recipients=st.lists(
            st.integers(0, num_users - 1), min_size=1, max_size=8
        ),
        candidate=st.integers(100, 100 + num_candidates - 1),
        created_at=st.floats(0.0, 100.0, allow_nan=False),
        via=st.lists(st.integers(0, num_users - 1), min_size=0, max_size=4),
    )


def batch_strategy():
    return st.builds(
        RecommendationBatch, st.lists(group_strategy(), min_size=0, max_size=6)
    )


def filters_strategy():
    """A random funnel configuration (subset + parameters, order fixed) as
    two independent filter lists: the table-backed stages for the batched
    pipeline, and the sequential pipeline's copy — in which dedup and
    fatigue are, half the time each, the dict / deque reference models."""

    def build(dedup_window, waking, fatigue_cap, use_dedup, use_fatigue, models):
        def stages(dedup_cls, fatigue_cls):
            return [
                stage
                for stage in (
                    dedup_cls(window=dedup_window) if use_dedup else None,
                    WakingHoursFilter(
                        waking_start_hour=waking[0],
                        waking_end_hour=waking[1],
                        timezone_salt=waking[2],
                    ),
                    fatigue_cls(max_per_window=fatigue_cap) if use_fatigue else None,
                )
                if stage is not None
            ]

        return stages(DedupFilter, FatigueFilter), stages(
            ReferenceDedup if models[0] else DedupFilter,
            ReferenceFatigue if models[1] else FatigueFilter,
        )

    return st.builds(
        build,
        dedup_window=st.floats(10.0, 1e5, allow_nan=False),
        waking=st.tuples(
            st.integers(0, 11), st.integers(12, 24), st.integers(0, 3)
        ),
        fatigue_cap=st.integers(1, 4),
        use_dedup=st.booleans(),
        use_fatigue=st.booleans(),
        models=st.tuples(st.booleans(), st.booleans()),
    )


def assert_pipelines_equal(batched: DeliveryPipeline, sequential: DeliveryPipeline):
    assert batched.funnel.stages == sequential.funnel.stages
    assert batched.notifier.delivered_total == sequential.notifier.delivered_total
    assert batched.notifier.per_user == sequential.notifier.per_user
    assert [
        (n.recipient, n.recommendation.candidate, n.delivered_at)
        for n in batched.notifier.notifications
    ] == [
        (n.recipient, n.recommendation.candidate, n.delivered_at)
        for n in sequential.notifier.notifications
    ]


# ---------------------------------------------------------------------------
# The equivalence property
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    batches=st.lists(batch_strategy(), min_size=1, max_size=5),
    filters=filters_strategy(),
    start=st.floats(0.0, 86_400.0, allow_nan=False),
)
def test_offer_batch_equivalent_to_sequential_offers(batches, filters, start):
    """offer_batch == offer-per-candidate on random batches and funnels.

    Repeated (recipient, candidate) pairs inside and across batches
    exercise dedup's in-batch sequencing; small fatigue caps exercise the
    stateful budget; the waking filter's per-user timezones exercise the
    vectorized stage.  Filter *state* must match too, which the successive
    batches verify (batch i sees the state batches < i left behind).
    """
    filters, sequential_filters = filters
    batched = DeliveryPipeline(filters=filters, notifier=PushNotifier())
    sequential = DeliveryPipeline(
        filters=sequential_filters, notifier=PushNotifier()
    )
    for i, batch in enumerate(batches):
        now = start + i * 600.0
        delivered_batched = batched.offer_batch(batch, now)
        delivered_sequential = [
            n
            for rec in batch
            if (n := sequential.offer(rec, now)) is not None
        ]
        assert [n.recipient for n in delivered_batched] == [
            n.recipient for n in delivered_sequential
        ]
    assert_pipelines_equal(batched, sequential)


@settings(max_examples=25, deadline=None)
@given(
    batch=batch_strategy(),
    start=st.floats(0.0, 86_400.0, allow_nan=False),
)
def test_offer_batch_matches_offer_all_on_boxed_view(batch, start):
    """The boxed view of a batch offered per-candidate agrees exactly."""
    batched = DeliveryPipeline()
    sequential = DeliveryPipeline()
    batched.offer_batch(batch, start)
    sequential.offer_all(batch.to_recommendations(), start)
    assert_pipelines_equal(batched, sequential)


def test_offer_batch_empty_counts_nothing():
    pipeline = DeliveryPipeline()
    assert pipeline.offer_batch(EMPTY_RECOMMENDATION_BATCH, now=0.0) == []
    assert pipeline.funnel.stages == {}


class EvenRecipientsOnly:
    """A custom stage outside the shipped trio: both protocol entry points."""

    name = "even"

    def __init__(self):
        self.seen = []

    def allow(self, rec, now):
        return rec.recipient % 2 == 0

    def allow_mask(self, columns, now):
        self.seen.append(columns.recipients.tolist())
        return columns.recipients % 2 == 0


def test_offer_batch_runs_custom_filters_through_allow_mask():
    """A custom stage gets one mask call over only the earlier stages'
    survivors, and the funnel reads as the per-candidate lane's."""
    batch = RecommendationBatch(
        [RecommendationGroup([1, 2, 3, 4, 2], candidate=9, created_at=0.0)]
    )
    custom = EvenRecipientsOnly()
    pipeline = DeliveryPipeline(filters=[DedupFilter(window=60.0), custom])
    delivered = pipeline.offer_batch(batch, now=0.0)
    assert [n.recipient for n in delivered] == [2, 4]
    assert custom.seen == [[1, 2, 3, 4]]
    assert pipeline.funnel.get("raw") == 5
    assert pipeline.funnel.get("dropped:dedup") == 1
    assert pipeline.funnel.get("dropped:even") == 2

    boxed = DeliveryPipeline(
        filters=[DedupFilter(window=60.0), EvenRecipientsOnly()]
    )
    assert [n.recipient for n in boxed.offer_all(list(batch), now=0.0)] == [2, 4]
    assert boxed.funnel.stages == pipeline.funnel.stages


@pytest.mark.parametrize(
    "make_stage",
    [DedupFilter, WakingHoursFilter, FatigueFilter, EvenRecipientsOnly],
    ids=["dedup", "waking", "fatigue", "custom"],
)
def test_stages_with_both_entry_points_are_delivery_filters(make_stage):
    assert isinstance(make_stage(), DeliveryFilter)


def test_stage_without_allow_mask_is_not_a_delivery_filter():
    """``offer_batch`` has no per-candidate fallback: a stage that only
    answers ``allow`` does not satisfy the protocol."""

    class AllowOnly:
        name = "allow-only"

        def allow(self, rec, now):
            return True

    assert not isinstance(AllowOnly(), DeliveryFilter)


def test_boxed_lane_needs_only_allow():
    """The per-candidate reference lane calls ``allow`` alone, which is how
    the plain-Python reference models (no ``allow_mask``) run through it."""
    pipeline = DeliveryPipeline(
        filters=[ReferenceDedup(window=60.0), ReferenceFatigue(max_per_window=1)]
    )
    recs = [
        Recommendation(recipient=r, candidate=c, created_at=0.0)
        for r, c in [(1, 9), (1, 9), (2, 9), (2, 8)]
    ]
    assert [
        (n.recipient, n.recommendation.candidate)
        for n in pipeline.offer_all(recs, now=0.0)
    ] == [(1, 9), (2, 9)]
    assert pipeline.funnel.get("dropped:dedup") == 1
    assert pipeline.funnel.get("dropped:fatigue") == 1


# ---------------------------------------------------------------------------
# Per-stage allow_mask units
# ---------------------------------------------------------------------------

def columns_of(pairs):
    batch = RecommendationBatch(
        [
            RecommendationGroup([recipient], candidate=candidate, created_at=0.0)
            for recipient, candidate in pairs
        ]
    )
    return batch.columns()


class TestDedupAllowMask:
    def test_in_batch_repeat_blocked(self):
        dedup = DedupFilter(window=100.0)
        mask = dedup.allow_mask(columns_of([(1, 2), (1, 2), (1, 3)]), now=0.0)
        assert mask.tolist() == [True, False, True]

    def test_window_expiry_across_calls(self):
        dedup = DedupFilter(window=100.0)
        assert dedup.allow_mask(columns_of([(1, 2)]), now=0.0).tolist() == [True]
        assert dedup.allow_mask(columns_of([(1, 2)]), now=50.0).tolist() == [False]
        assert dedup.allow_mask(columns_of([(1, 2)]), now=151.0).tolist() == [True]

    def test_mask_prunes_like_scalar_path(self):
        """Horizon compaction runs on the same cadence from either entry
        point: the table grows and evicts identically."""
        scalar = DedupFilter(window=10.0)
        batched = DedupFilter(window=10.0)
        for i in range(12_000):
            scalar.allow(Recommendation(i, 0, created_at=0.0), now=float(i))
            batched.allow_mask(columns_of([(i, 0)]), now=float(i))
        assert batched.last_sent_entries() == scalar.last_sent_entries()
        assert batched._table.capacity == scalar._table.capacity
        assert batched.tracked_pairs() < 2_000  # expired pairs were evicted


class TestWakingAllowMask:
    def test_matches_scalar_for_many_users_and_times(self):
        for salt in (0, 7):
            for home in (None, -5):
                waking = WakingHoursFilter(
                    timezone_salt=salt, home_offset_hours=home
                )
                recipients = list(range(300))
                for now in (0.0, 3.5 * HOUR, 13 * HOUR, 100_000.0):
                    mask = waking.allow_mask(
                        columns_of([(r, 0) for r in recipients]), now
                    )
                    scalar = [waking.is_awake(r, now) for r in recipients]
                    assert mask.tolist() == scalar

    def test_huge_user_ids(self):
        waking = WakingHoursFilter()
        users = [2**62, 2**63 - 1, 0]
        mask = waking.allow_mask(columns_of([(u, 0) for u in users]), now=0.0)
        assert mask.tolist() == [waking.is_awake(u, 0.0) for u in users]


class TestFatigueAllowMask:
    def test_budget_charged_in_order(self):
        fatigue = FatigueFilter(max_per_window=2, window=100.0)
        mask = fatigue.allow_mask(
            columns_of([(1, 0), (1, 1), (1, 2), (2, 0)]), now=0.0
        )
        assert mask.tolist() == [True, True, False, True]

    def test_window_rolls_across_calls(self):
        fatigue = FatigueFilter(max_per_window=1, window=100.0)
        assert fatigue.allow_mask(columns_of([(1, 0)]), now=0.0).tolist() == [True]
        assert fatigue.allow_mask(columns_of([(1, 0)]), now=50.0).tolist() == [False]
        assert fatigue.allow_mask(columns_of([(1, 0)]), now=150.0).tolist() == [True]
        assert fatigue.sent_in_window(1, now=150.0) == 1


# ---------------------------------------------------------------------------
# RecommendationBatch mechanics
# ---------------------------------------------------------------------------

class TestRecommendationBatch:
    def make_batch(self):
        return RecommendationBatch(
            [
                RecommendationGroup(
                    [1, 2, 3], candidate=9, created_at=5.0, via=(7, 8)
                ),
                RecommendationGroup(
                    np.array([4, 5], dtype=np.int64),
                    candidate=10,
                    created_at=6.0,
                    action=ActionType.RETWEET,
                ),
            ]
        )

    def test_lazy_boxed_view_matches_columns(self):
        batch = self.make_batch()
        recs = list(batch)
        assert len(batch) == 5
        assert [r.recipient for r in recs] == [1, 2, 3, 4, 5]
        assert [r.candidate for r in recs] == [9, 9, 9, 10, 10]
        assert recs[0].via == (7, 8)
        assert recs[3].action is ActionType.RETWEET
        columns = batch.columns()
        assert columns.recipients.tolist() == [1, 2, 3, 4, 5]
        assert columns.candidates.tolist() == [9, 9, 9, 10, 10]
        assert batch[3] == recs[3]
        assert batch[-1] == recs[-1]

    def test_ndarray_via_decodes_lazily(self):
        group = RecommendationGroup(
            [1], candidate=2, created_at=0.0, via=np.array([5, 6], dtype=np.int64)
        )
        assert group.num_witnesses == 2
        assert group.via == (5, 6)
        assert group.recommendation_at(0).via == (5, 6)

    def test_select_boxes_only_survivors(self):
        batch = self.make_batch()
        picked = batch.select(np.array([0, 2, 4]))
        assert [r.recipient for r in picked] == [1, 3, 5]
        assert [r.candidate for r in picked] == [9, 9, 10]

    def test_concat_aliases_empties(self):
        batch = self.make_batch()
        concat_all = RecommendationBatch.concat_all
        assert concat_all([batch, EMPTY_RECOMMENDATION_BATCH]) is batch
        assert concat_all([EMPTY_RECOMMENDATION_BATCH, batch]) is batch
        merged = concat_all([batch, batch])
        assert len(merged) == 10
        assert not EMPTY_RECOMMENDATION_BATCH

    def test_scoring_offer_batch_equivalent(self):
        batch = self.make_batch()
        batched = TopKPerUserBuffer(k=1)
        sequential = TopKPerUserBuffer(k=1)
        batched.offer_batch(batch)
        for rec in batch:
            sequential.offer(rec)
        assert batched.offered == sequential.offered == 5
        assert batched.pending() == sequential.pending()
        assert batched.flush(now=10.0) == sequential.flush(now=10.0)
