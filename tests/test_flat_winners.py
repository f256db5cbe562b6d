"""Ranked winners stay columnar: flush -> funnel -> serving cache.

``TopKPerUserBuffer.flush`` releases :class:`FlatRecommendations` — flat
aligned columns plus a row -> source index — and everything downstream
reads those columns.  The boxed per-candidate lane (``reference_flush``,
``DeliveryPipeline.offer``, ``ingest_released`` over a list) is the
oracle: rows, order, funnel counts and served state must match it exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recommendation import (
    FlatRecommendations,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.core.wire import (
    FRAME_FLAT_RECS,
    decode_flat_recommendations,
    encode_flat_recommendations,
    flat_recommendations_from_frame,
    frame_flat_recommendations,
    frame_notifications,
    notifications_from_frame,
    read_frame,
)
from repro.delivery import (
    DedupFilter,
    DeliveryPipeline,
    FatigueFilter,
    PushNotification,
    TopKPerUserBuffer,
)
from repro.serving import ServingCache, ShardedServingCache
from tests.test_delivery_scoring import identity, rec, reference_flush

# Few distinct creation times and witness counts: equal scores (ties
# broken by candidate id) and equal-witness duplicates are the common case.
_CREATED = st.sampled_from([0.0, 100.0, 900.0])
_WITNESSES = st.integers(0, 3)


def _scalar_offer():
    return st.builds(
        lambda recipient, candidate, witnesses, created_at: rec(
            recipient=recipient,
            candidate=candidate,
            witnesses=witnesses,
            created_at=created_at,
        ),
        st.integers(0, 4),
        st.integers(0, 5),
        _WITNESSES,
        _CREATED,
    )


def _group_offer():
    return st.builds(
        lambda recipients, candidate, witnesses, created_at: RecommendationGroup(
            recipients,
            candidate=candidate,
            created_at=created_at,
            via=tuple(range(200, 200 + witnesses)),
        ),
        st.lists(st.integers(0, 4), min_size=1, max_size=5),
        st.integers(0, 5),
        _WITNESSES,
        _CREATED,
    )


def _offer_sequences():
    """Scalar offers and detection groups, interleaved in one buffer."""
    return st.lists(st.one_of(_scalar_offer(), _group_offer()), max_size=30)


def _fill(buffer: TopKPerUserBuffer, offers) -> list[Recommendation]:
    """Offer each item through its own entry point; return the boxed
    sequence the per-candidate lane would have seen."""
    boxed: list[Recommendation] = []
    for offered in offers:
        if isinstance(offered, Recommendation):
            buffer.offer(offered)
            boxed.append(offered)
        else:
            batch = RecommendationBatch([offered])
            buffer.offer_batch(batch)
            boxed.extend(batch)
    return boxed


class TestFlushReleasesFlatColumns:
    @settings(max_examples=150, deadline=None)
    @given(
        offers=_offer_sequences(),
        k=st.integers(1, 3),
        precut_threshold=st.sampled_from([1, 8, 10**9]),
        now=st.sampled_from([0.0, 900.0, 4_000.0]),
    )
    def test_rows_match_boxed_reference_in_order(
        self, offers, k, precut_threshold, now
    ):
        buffer = TopKPerUserBuffer(k=k, precut_threshold=precut_threshold)
        boxed = _fill(buffer, offers)
        expected = reference_flush(boxed, k, buffer.half_life, now)
        released = buffer.flush(now)

        assert isinstance(released, FlatRecommendations)
        assert len(released) == len(expected)
        assert bool(released) == bool(expected)
        # Row for row, as columns ...
        assert released.recipients.tolist() == [r.recipient for r in expected]
        assert released.candidates.tolist() == [r.candidate for r in expected]
        assert released.created_at.tolist() == [r.created_at for r in expected]
        assert released.witnesses.tolist() == [len(r.via) for r in expected]
        # ... and as the lazily boxed view (via decoded from the sources).
        assert [identity(r) for r in released] == [identity(r) for r in expected]
        assert released == expected
        assert buffer.pending() == 0 and buffer.flush(now) == []

    def test_equal_witness_duplicate_keeps_first_offer(self):
        buffer = TopKPerUserBuffer(k=2)
        first = Recommendation(1, 9, created_at=5.0, via=(7, 8))
        buffer.offer(first)
        buffer.offer_batch(
            RecommendationBatch(
                [RecommendationGroup([1], candidate=9, created_at=6.0, via=(3, 4))]
            )
        )
        [winner] = buffer.flush(now=10.0)
        assert identity(winner) == identity(first)

    def test_sources_hold_only_winning_chunks(self):
        buffer = TopKPerUserBuffer(k=1)
        strong = RecommendationGroup([1, 2], candidate=9, created_at=0.0, via=(5, 6))
        weak = RecommendationGroup([1, 2], candidate=8, created_at=0.0, via=(5,))
        buffer.offer_batch(RecommendationBatch([weak, strong]))
        released = buffer.flush(now=0.0)
        assert released.sources == [strong]
        assert released.source_index.tolist() == [0, 0]


class TestFlatRecommendations:
    def _flat(self) -> FlatRecommendations:
        buffer = TopKPerUserBuffer(k=2)
        buffer.offer_batch(
            RecommendationBatch(
                [
                    RecommendationGroup(
                        [1, 2, 3], candidate=10, created_at=1.0, via=(5, 6)
                    ),
                    RecommendationGroup(
                        [2, 3], candidate=11, created_at=2.0, via=(7,),
                        motif="triangle",
                    ),
                ]
            )
        )
        return buffer.flush(now=2.0)

    def test_sequence_protocol(self):
        flat = self._flat()
        boxed = list(flat)
        assert len(flat) == 5 and flat
        assert flat[0] == boxed[0] and flat[-1] == boxed[-1]
        with pytest.raises(IndexError):
            flat[5]
        assert flat.to_recommendations() == boxed
        assert flat.select(np.array([3, 0])) == [boxed[3], boxed[0]]

    def test_take_shares_sources_and_keeps_order(self):
        flat = self._flat()
        part = flat.take(np.array([4, 1]))
        assert part.sources is flat.sources
        assert list(part) == [flat[4], flat[1]]
        assert part.columns().recipients.tolist() == [3, 2]

    def test_from_boxed_round_trips(self):
        boxed = list(self._flat())
        again = FlatRecommendations.from_boxed(iter(boxed))
        assert list(again) == boxed
        assert [identity(r) for r in again] == [identity(r) for r in boxed]
        assert again.witnesses.tolist() == [len(r.via) for r in boxed]

    @pytest.mark.parametrize("boxed_sources", [False, True])
    def test_wire_round_trip(self, boxed_sources):
        flat = self._flat()
        if boxed_sources:
            flat = FlatRecommendations.from_boxed(list(flat))
        decoded = decode_flat_recommendations(encode_flat_recommendations(flat))
        assert [identity(r) for r in decoded] == [identity(r) for r in flat]
        assert [r.motif for r in decoded] == [r.motif for r in flat]

        mem = np.zeros(4096, dtype=np.uint8)
        nbytes = frame_flat_recommendations(
            mem, encode_flat_recommendations(flat), now=7.5
        )
        kind, cols, blobs, now, _latency, _aux = read_frame(mem[:nbytes], copy=True)
        assert (kind, now) == (FRAME_FLAT_RECS, 7.5)
        framed = flat_recommendations_from_frame(cols, blobs)
        assert [identity(r) for r in framed] == [identity(r) for r in flat]

    def test_notification_frame_rides_the_flat_codec(self):
        delivered = [PushNotification(r, delivered_at=9.0) for r in self._flat()]
        stats = ({"raw": 5, "delivered": 5}, 12)
        mem = np.zeros(4096, dtype=np.uint8)
        nbytes = frame_notifications(mem, delivered, stats, delivered_at=9.0)
        _kind, cols, blobs, now, _latency, aux = read_frame(mem[:nbytes], copy=True)
        got, got_stats = notifications_from_frame(cols, blobs, now, aux)
        assert got == delivered and got_stats == stats
        assert [identity(p.recommendation) for p in got] == [
            identity(p.recommendation) for p in delivered
        ]

    def test_frame_overflow_writes_nothing(self):
        mem = np.zeros(64, dtype=np.uint8)
        payload = encode_flat_recommendations(self._flat())
        assert frame_flat_recommendations(mem, payload, now=0.0) is None
        assert not mem.any()


class _OddRecipientsOnly:
    """A custom stage beside the shipped ones (both protocol entry points)."""

    name = "odd"

    def allow(self, recommendation: Recommendation, now: float) -> bool:
        return recommendation.recipient % 2 == 1

    def allow_mask(self, columns, now: float) -> np.ndarray:
        return columns.recipients % 2 == 1


def _ranked_window(seed: int) -> list[RecommendationGroup]:
    rng = np.random.default_rng(seed)
    return [
        RecommendationGroup(
            rng.integers(0, 40, int(rng.integers(1, 25))).astype(np.int64),
            candidate=int(rng.integers(100, 108)),
            created_at=float(t),
            via=tuple(rng.integers(0, 50, int(rng.integers(1, 4))).tolist()),
        )
        for t in range(20)
    ]


class TestFlatWinnersThroughTheFunnel:
    @pytest.mark.parametrize(
        "make_filters",
        [
            lambda: [DedupFilter(window=500.0), FatigueFilter(max_per_window=3)],
            lambda: [DedupFilter(window=500.0), _OddRecipientsOnly()],
        ],
        ids=["vectorized", "custom-mask"],
    )
    def test_columnar_lane_matches_boxed_lane(self, make_filters):
        columnar = DeliveryPipeline(filters=make_filters())
        via_batch = DeliveryPipeline(filters=make_filters())
        boxed = DeliveryPipeline(filters=make_filters())
        for window in range(3):
            now = 100.0 * window
            released = []
            for _lane in range(3):
                ranker = TopKPerUserBuffer(k=2)
                ranker.offer_batch(RecommendationBatch(_ranked_window(window)))
                released.append(ranker.flush(now))
            got = columnar.offer_all(released[0], now)
            got_batch = via_batch.offer_batch(released[1], now)
            want = [
                pushed
                for pushed in (boxed.offer(r, now) for r in released[2])
                if pushed is not None
            ]
            assert isinstance(got, list)
            assert [identity(p.recommendation) for p in got] == [
                identity(p.recommendation) for p in want
            ]
            assert got_batch == got
        assert columnar.funnel.stages == boxed.funnel.stages
        assert via_batch.funnel.stages == boxed.funnel.stages

    def test_boxed_list_still_takes_the_reference_loop(self):
        pipeline = DeliveryPipeline(filters=[DedupFilter()])
        recs = [rec(recipient=1, candidate=2), rec(recipient=1, candidate=2)]
        assert len(pipeline.offer_all(recs, now=0.0)) == 1
        assert pipeline.funnel.stages["dropped:dedup"] == 1


class TestFlatWinnersIntoServing:
    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_columns_merge_like_boxed_winners(self, num_shards):
        columnar = ShardedServingCache(num_shards=num_shards, k=2)
        boxed = ShardedServingCache(num_shards=num_shards, k=2)
        plain = ServingCache(k=2)
        for window in range(3):
            now = 100.0 * window
            ranker = TopKPerUserBuffer(k=2)
            ranker.offer_batch(RecommendationBatch(_ranked_window(window)))
            released = ranker.flush(now)
            columnar.ingest_released(released, now)
            boxed.ingest_released(list(released), now)
            plain.ingest_released(released, now)
        assert columnar.dump() == boxed.dump() == plain.dump()
        assert columnar.rows_ingested == boxed.rows_ingested == plain.rows_ingested
        assert columnar.updates == boxed.updates
