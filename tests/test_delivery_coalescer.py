"""Unit tests for the delivery coalescer (push-queue side micro-batching)."""

import pytest

from repro.core import ActionType, EdgeEvent
from repro.core.recommendation import RecommendationBatch, RecommendationGroup
from repro.delivery import DeliveryPipeline, PushNotifier
from repro.sim.des import DiscreteEventSimulator
from repro.sim.metrics import LatencyBreakdown
from repro.streaming.consumer import CandidateBatch, DeliveryCoalescer


def candidate_batch(recipients, candidate=9, created_at=0.0):
    """A CandidateBatch carrying one detection group."""
    origin = EdgeEvent(created_at, 100, candidate, ActionType.FOLLOW)
    recommendations = RecommendationBatch(
        [RecommendationGroup(recipients, candidate=candidate, created_at=created_at)]
    )
    return CandidateBatch(origin, recommendations, detection_seconds=0.0)


def make_rig(batch_size=1, max_wait=0.5):
    sim = DiscreteEventSimulator()
    breakdown = LatencyBreakdown()
    notifications = []
    delivery = DeliveryPipeline(filters=[], notifier=PushNotifier())
    coalescer = DeliveryCoalescer(
        sim, delivery, breakdown, notifications,
        batch_size=batch_size, max_wait=max_wait,
    )
    return sim, breakdown, notifications, delivery, coalescer


class TestPassthrough:
    def test_batch_size_one_dispatches_inline(self):
        sim, breakdown, notifications, delivery, coalescer = make_rig(batch_size=1)
        coalescer(candidate_batch([1, 2]), 0.0, 1.0)
        assert [n.recipient for n in notifications] == [1, 2]
        assert all(n.delivered_at == 1.0 for n in notifications)
        assert "path:delivery-batching" not in breakdown.stages()
        assert coalescer.pending_batches == 0
        # Not a second dispatch path: a window of one, flushed on arrival
        # with no timer left behind.
        assert coalescer.flushes == 1
        assert sim.pending() == 0


class TestSizeTrigger:
    def test_flushes_when_candidate_count_reached(self):
        sim, breakdown, notifications, delivery, coalescer = make_rig(batch_size=3)
        coalescer(candidate_batch([1, 2], candidate=7), 0.0, 1.0)
        assert coalescer.pending_batches == 1
        assert coalescer.pending_candidates == 2
        assert notifications == []  # waiting for the batch to fill
        coalescer(candidate_batch([5], candidate=8, created_at=0.5), 0.0, 2.0)
        assert coalescer.pending_batches == 0
        # One merged offer_batch at the triggering batch's delivery time,
        # order preserved across the merged batches.
        assert [(n.recipient, n.recommendation.candidate) for n in notifications] == [
            (1, 7), (2, 7), (5, 8),
        ]
        assert all(n.delivered_at == 2.0 for n in notifications)
        assert coalescer.flushes == 1
        assert coalescer.batches_coalesced == 2

    def test_wait_recorded_per_candidate(self):
        sim, breakdown, notifications, delivery, coalescer = make_rig(batch_size=3)
        coalescer(candidate_batch([1, 2]), 0.0, 1.0)
        coalescer(candidate_batch([5]), 0.0, 2.0)
        stage = breakdown.stage("path:delivery-batching")
        # First batch's two candidates waited 1s; the trigger waited 0s —
        # zero-wait samples count, like the detection batching stage.
        assert len(stage) == 3
        assert stage.percentile(0) == 0.0
        assert stage.percentile(100) == 1.0


class TestTimeoutFlush:
    def test_max_wait_timer_flushes_trickle(self):
        sim, breakdown, notifications, delivery, coalescer = make_rig(
            batch_size=100, max_wait=0.5
        )
        sim.schedule_at(1.0, lambda: coalescer(candidate_batch([1]), 0.5, 1.0))
        sim.run()
        assert coalescer.pending_batches == 0
        assert [n.recipient for n in notifications] == [1]
        # Flushed by the timer at +0.5s, not on arrival.
        assert notifications[0].delivered_at == pytest.approx(1.5)
        stage = breakdown.stage("path:delivery-batching")
        assert stage.percentile(100) == pytest.approx(0.5)

    def test_timer_covers_batches_after_the_first(self):
        sim, breakdown, notifications, delivery, coalescer = make_rig(
            batch_size=100, max_wait=1.0
        )
        sim.schedule_at(0.0, lambda: coalescer(candidate_batch([1]), 0.0, 0.0))
        sim.schedule_at(0.4, lambda: coalescer(candidate_batch([2]), 0.0, 0.4))
        sim.run()
        # Both flushed together when the first batch's timer fired.
        assert all(n.delivered_at == pytest.approx(1.0) for n in notifications)
        assert coalescer.flushes == 1


class TestAccounting:
    def test_total_latency_measured_to_flush(self):
        sim, breakdown, notifications, delivery, coalescer = make_rig(batch_size=2)
        batch = candidate_batch([1], created_at=0.0)
        coalescer(batch, 0.5, 1.0)
        coalescer(candidate_batch([2], created_at=1.5), 1.8, 2.0)
        # First candidate: created 0.0, queue-delivered 1.0, flushed 2.0.
        assert breakdown.total.percentile(100) == pytest.approx(2.0)
        assert breakdown.stage("path:queue").percentile(100) == pytest.approx(1.0)
        assert breakdown.stage("path:delivery-batching").percentile(100) == (
            pytest.approx(1.0)
        )

    def test_validation(self):
        sim, breakdown, notifications, delivery, _ = make_rig()
        with pytest.raises(ValueError):
            DeliveryCoalescer(
                sim, delivery, breakdown, notifications, batch_size=0
            )
        with pytest.raises(ValueError):
            DeliveryCoalescer(
                sim, delivery, breakdown, notifications, max_wait=-1.0
            )


class TestRankedCoalescer:
    """The ranked configuration: TopKPerUserBuffer inside the window."""

    @staticmethod
    def make_ranked_rig(batch_size=1, max_wait=0.5, k=1):
        from repro.delivery import TopKPerUserBuffer

        sim = DiscreteEventSimulator()
        breakdown = LatencyBreakdown()
        notifications = []
        delivery = DeliveryPipeline(filters=[], notifier=PushNotifier())
        coalescer = DeliveryCoalescer(
            sim, delivery, breakdown, notifications,
            batch_size=batch_size, max_wait=max_wait,
            ranker=TopKPerUserBuffer(k=k),
        )
        return sim, breakdown, notifications, delivery, coalescer

    def test_window_releases_each_users_top_k(self):
        sim, _bd, notifications, delivery, coalescer = self.make_ranked_rig(
            batch_size=3, k=1
        )
        # Two candidates for recipient 1 in one window: 11 has more
        # witnesses, so only (1, 11) survives; recipient 2 keeps its one.
        weak = RecommendationBatch(
            [RecommendationGroup([1, 2], candidate=10, created_at=0.0, via=(5,))]
        )
        strong = RecommendationBatch(
            [RecommendationGroup([1], candidate=11, created_at=0.0, via=(5, 6))]
        )
        origin = EdgeEvent(0.0, 100, 10, ActionType.FOLLOW)
        coalescer(CandidateBatch(origin, weak), 0.0, 1.0)
        assert notifications == []  # buffered, not yet flushed
        coalescer(CandidateBatch(origin, strong), 0.0, 1.0)
        released = sorted(
            (n.recipient, n.recommendation.candidate) for n in notifications
        )
        assert released == [(1, 11), (2, 10)]
        # The funnel saw only the ranked survivors, not the raw volume.
        assert delivery.funnel.get("raw") == 2

    def test_max_wait_timer_flushes_ranked_buffer(self):
        sim, _bd, notifications, _delivery, coalescer = self.make_ranked_rig(
            batch_size=100, max_wait=0.5, k=2
        )
        sim.clock.advance_to(1.0)
        coalescer(candidate_batch([1, 1, 2], candidate=7), 0.0, 1.0)
        assert notifications == []
        sim.run()  # the 0.5 s window timer fires
        pairs = sorted((n.recipient, n.recommendation.candidate) for n in notifications)
        # In-window (recipient, candidate) dedup applies inside the ranker.
        assert pairs == [(1, 7), (2, 7)]
        assert all(n.delivered_at == pytest.approx(1.5) for n in notifications)

    def test_inline_mode_ranks_each_batch_individually(self):
        sim, _bd, notifications, delivery, coalescer = self.make_ranked_rig(
            batch_size=1, k=1
        )
        coalescer(candidate_batch([1, 1, 1], candidate=7), 0.0, 1.0)
        assert [(n.recipient, n.recommendation.candidate) for n in notifications] == [
            (1, 7)
        ]
        # No cross-batch accumulation: the next batch is its own window.
        coalescer(candidate_batch([4], candidate=8), 0.0, 2.0)
        assert notifications[-1].recipient == 4
        assert delivery.funnel.get("raw") == 2

    def test_topology_wires_ranker_from_ranked_k(self):
        from repro.cluster import Cluster, ClusterConfig
        from repro.core import DetectionParams
        from repro.graph import GraphSnapshot
        from repro.streaming import StreamingTopology
        from repro.topology import TopologyConfig

        snapshot = GraphSnapshot.from_edges(
            [(0, 3), (1, 3), (1, 4), (2, 4)], num_nodes=8
        )
        cluster = Cluster.build(
            snapshot, DetectionParams(k=2, tau=600.0),
            ClusterConfig(num_partitions=2),
        )
        topology = StreamingTopology(cluster, config=TopologyConfig(ranked_k=1))
        assert topology.coalescer._ranker is not None
        assert topology.coalescer._ranker.k == 1
        unranked = StreamingTopology(cluster)
        assert unranked.coalescer._ranker is None
