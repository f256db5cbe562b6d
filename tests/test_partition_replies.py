"""A partition's one reply per batch, and per-event attribution rebuilt.

Each partition answers a flushed event batch with one
:class:`~repro.core.recommendation.RecommendationBatch` of its trigger
groups in event order, every group carrying its triggering event's batch
position (``RecommendationGroup.event``).  These tests pin that the
position survives both worker wires (the pickled group table and the
slab frame), and that :meth:`RecommendationBatch.by_event` over P
partitions' replies reproduces the boxed per-event loop's order on every
transport.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import (
    ActionType,
    DetectionParams,
    DiamondDetector,
    EdgeEvent,
    EventBatch,
    MotifEngine,
    RecommendationBatch,
)
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    FlatRecommendations,
    RecommendationGroup,
)
from repro.core.wire import (
    FRAME_FLAT_RECS,
    FRAME_GROUPED,
    decode_flat_recommendations,
    decode_recommendation_batch,
    encode_flat_recommendations,
    encode_recommendation_batch,
    frame_flat_recommendations,
    frame_partition_reply,
    read_frame,
    table_payload_from_frame,
)
from repro.delivery import TopKPerUserBuffer
from repro.graph import DynamicEdgeIndex, GraphSnapshot, build_follower_snapshot

def group_rows(batch):
    return [
        (g.event, g.candidate, g.created_at, g.recipients.tolist(), g.via,
         g.action, g.motif)
        for g in batch.groups
    ]


def flat_rows(flat):
    return [
        (r.recipient, r.candidate, r.created_at, r.via, r.action, r.motif)
        for r in flat
    ]


def partition_reply() -> RecommendationBatch:
    return RecommendationBatch(
        [
            RecommendationGroup([1, 2], 9, 5.0, via=(7, 8), event=0),
            RecommendationGroup(
                np.array([3], dtype=np.int64), 10, 6.0, "triangle",
                ActionType.RETWEET, np.array([7], dtype=np.int64), event=4,
            ),
            RecommendationGroup([4, 5, 6], 9, 7.0, via=(7, 8, 11), event=9),
        ]
    )


class TestReplyCodec:
    @pytest.mark.parametrize("reply", ["groups", "empty"])
    def test_event_round_trips_both_wires(self, reply):
        batch = partition_reply() if reply == "groups" else EMPTY_RECOMMENDATION_BATCH
        payload = encode_recommendation_batch(batch)

        pickled = decode_recommendation_batch(payload)
        assert group_rows(pickled) == group_rows(batch)

        mem = np.zeros(4096, dtype=np.uint8)
        nbytes = frame_partition_reply(mem, payload, latency=0.25)
        kind, cols, blobs, _now, latency, _aux = read_frame(mem[:nbytes], copy=True)
        assert (kind, latency) == (FRAME_GROUPED, 0.25)
        framed = decode_recommendation_batch(table_payload_from_frame(cols, blobs))
        assert group_rows(framed) == group_rows(batch)
        if reply == "empty":
            assert pickled is framed is EMPTY_RECOMMENDATION_BATCH

    def test_flat_payload_round_trips_both_wires(self):
        # The ranked winners' codec decodes its sources through the same
        # group-table decoder, with a blank event column.
        buffer = TopKPerUserBuffer(k=2)
        buffer.offer_batch(partition_reply())
        flat = buffer.flush(now=8.0)
        assert isinstance(flat, FlatRecommendations) and len(flat) == 6
        payload = encode_flat_recommendations(flat)

        assert flat_rows(decode_flat_recommendations(payload)) == flat_rows(flat)

        mem = np.zeros(4096, dtype=np.uint8)
        nbytes = frame_flat_recommendations(mem, payload, now=8.0)
        kind, cols, blobs, now, _latency, _aux = read_frame(mem[:nbytes], copy=True)
        assert (kind, now) == (FRAME_FLAT_RECS, 8.0)
        framed = decode_flat_recommendations(table_payload_from_frame(cols, blobs))
        assert flat_rows(framed) == flat_rows(flat)


class TestByEvent:
    def test_stable_sort_keeps_partition_order_within_an_event(self):
        first = RecommendationBatch(
            [RecommendationGroup([1], 9, 0.0, event=0),
             RecommendationGroup([2], 9, 1.0, event=3)]
        )
        second = RecommendationBatch(
            [RecommendationGroup([3], 8, 0.0, event=0),
             RecommendationGroup([4], 8, 2.0, event=2)]
        )
        got = RecommendationBatch.by_event([first, EMPTY_RECOMMENDATION_BATCH, second])
        assert [(i, [r.recipient for r in batch]) for i, batch in got] == [
            (0, [1, 3]), (2, [4]), (3, [2]),
        ]
        assert RecommendationBatch.by_event([]) == []

    @pytest.mark.parametrize(
        "transport", ["inprocess", "shm"]
    )
    def test_interleaved_partition_replies_match_the_per_event_loop(self, transport):
        snapshot, events = interleaved_workload()
        params = DetectionParams(k=2, tau=600.0)
        now = events[-1].created_at
        oracle = Cluster.build(snapshot, params, ClusterConfig(num_partitions=3))
        per_event = [oracle.broker.process_event(e, now)[0] for e in events]
        expected = [(i, recs) for i, recs in enumerate(per_event) if recs]
        assert len(expected) >= 4

        config = ClusterConfig(num_partitions=3, transport=transport)
        with Cluster.build(snapshot, params, config) as cluster:
            replies, _latency = cluster.broker.process_batch(
                EventBatch.from_events(events), now=now
            )
        assert len(replies) == 3
        assert all(len({g.event for g in reply.groups}) >= 2 for reply in replies)
        attributed = RecommendationBatch.by_event(replies)
        assert [(i, list(batch)) for i, batch in attributed] == expected

    def test_engine_stamps_events_like_the_per_event_loop(self):
        # Two programs' candidate batches merge by event.
        snapshot, events = interleaved_workload()
        static = build_follower_snapshot(snapshot)

        def engine():
            dynamic = DynamicEdgeIndex(retention=600.0)
            k2, k3 = (
                DiamondDetector(static, dynamic, DetectionParams(k=k, tau=600.0),
                                inserts_edges=False)
                for k in (2, 3)
            )
            return MotifEngine(static, dynamic, [k2, k3], track_latency=False)

        now = events[-1].created_at
        reference = engine()
        per_event = [reference.process(e, now) for e in events]
        expected = [(i, recs) for i, recs in enumerate(per_event) if recs]
        assert len(expected) >= 4

        got = engine().process_batch_grouped(EventBatch.from_events(events), now)
        assert list(got) == [rec for recs in per_event for rec in recs]
        attributed = RecommendationBatch.by_event([got])
        assert [(i, list(batch)) for i, batch in attributed] == expected


def interleaved_workload():
    """24 A's follow B's 30..33 (so trigger audiences land in all three
    partitions of a P = 3 cluster); targets 40..42 trigger interleaved."""
    snapshot = GraphSnapshot.from_edges(
        [(a, b) for a in range(24) for b in range(30, 34) if (a + b) % 4],
        num_nodes=48,
    )
    events = [
        EdgeEvent(float(t), b, c)
        for t, (b, c) in enumerate(
            [(30, 40), (30, 41), (31, 40), (31, 42), (30, 42), (32, 41),
             (33, 40), (32, 42), (33, 41)]
        )
    ]
    return snapshot, events
