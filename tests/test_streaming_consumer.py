"""Unit tests for the detection consumer (queue-side broker glue)."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams, EdgeEvent
from repro.graph import GraphSnapshot
from repro.ops import AdmissionController, AdmissionPolicy
from repro.sim.des import DiscreteEventSimulator
from repro.sim.metrics import LatencyBreakdown
from repro.streaming.consumer import CandidateBatch, DetectionConsumer
from repro.streaming.queue import MessageQueue

from tests.conftest import A2, B1, B2, C2

PARAMS = DetectionParams(k=2, tau=600.0)


@pytest.fixture
def rig(figure1_snapshot):
    sim = DiscreteEventSimulator()
    cluster = Cluster.build(figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2))
    output: MessageQueue[CandidateBatch] = MessageQueue(sim, "push")
    breakdown = LatencyBreakdown()
    batches: list[CandidateBatch] = []
    output.subscribe(lambda batch, pub, dlv: batches.append(batch))
    return sim, cluster, output, breakdown, batches


class TestDetectionConsumer:
    def test_produces_batch_on_completed_motif(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(sim, cluster, output, breakdown)
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        consumer(EdgeEvent(1.0, B2, C2), 1.0, 1.0)
        sim.run()
        assert consumer.events_consumed == 2
        assert consumer.candidates_produced == 1
        assert len(batches) == 1
        batch = batches[0]
        assert batch.recommendations[0].recipient == A2
        assert batch.detection_seconds > 0.0
        assert batch.origin_event.actor == B2

    def test_no_batch_without_candidates(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(sim, cluster, output, breakdown)
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        sim.run()
        assert batches == []
        assert "detection" in breakdown.stages()

    def test_detection_time_recorded_per_event(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(sim, cluster, output, breakdown)
        for i in range(5):
            consumer(EdgeEvent(float(i), B1, C2), float(i), float(i))
        assert len(breakdown.stage("detection")) == 5

    def test_admission_sheds_before_detection(self, rig):
        sim, cluster, output, breakdown, batches = rig
        admission = AdmissionController(
            rate=1.0, burst=1.0, policy=AdmissionPolicy.DROP
        )
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, admission=admission
        )
        for i in range(10):
            consumer(EdgeEvent(float(i), B1, C2), 0.0, 0.0)
        assert consumer.events_shed == 9
        assert consumer.events_consumed == 1
        # Shed events never reach the cluster.
        replica = cluster.replica_sets[0].replicas[0]
        assert replica.events_processed() == 1

    def test_shed_events_produce_no_detection_record(self, rig):
        sim, cluster, output, breakdown, batches = rig
        admission = AdmissionController(rate=1.0, burst=1.0)
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, admission=admission
        )
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        consumer(EdgeEvent(0.0, B2, C2), 0.0, 0.0)  # shed
        assert len(breakdown.stage("detection")) == 1


class TestMicroBatching:
    def test_flushes_when_batch_fills(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, batch_size=2, max_wait=10.0
        )
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        assert consumer.pending_events == 1  # waiting for the batch to fill
        consumer(EdgeEvent(1.0, B2, C2), 1.0, 1.0)
        assert consumer.pending_events == 0  # size trigger flushed at once
        sim.run()
        assert consumer.events_consumed == 2
        assert len(batches) == 1
        assert batches[0].recommendations[0].recipient == A2
        # Only the second event waited zero seconds; the first waited 1.0s
        # of virtual time, reported as the batching stage.
        assert batches[0].batching_seconds == 0.0
        batching = breakdown.stage("batching")
        assert len(batching) == 2
        assert batching.percentile(0) == 0.0
        assert batching.percentile(100) == 1.0

    def test_max_wait_timer_flushes_trickle(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, batch_size=100, max_wait=5.0
        )

        def deliver():
            consumer(EdgeEvent(0.0, B1, C2), 0.0, sim.clock.now())
            consumer(EdgeEvent(1.0, B2, C2), 1.0, sim.clock.now())

        sim.schedule_at(0.0, deliver)
        sim.run()
        # The timer fired at +5.0s and drained the partial batch.
        assert consumer.events_consumed == 2
        assert consumer.pending_events == 0
        assert len(batches) == 1
        assert batches[0].batching_seconds == pytest.approx(5.0)

    def test_batched_output_matches_per_event(self, rig, figure1_snapshot):
        sim, cluster, output, breakdown, batches = rig
        per_event_cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        events = [EdgeEvent(0.0, B1, C2), EdgeEvent(1.0, B2, C2)]
        # The oracle by name: process_stream batches at every size.
        expected = [
            rec for e in events for rec in per_event_cluster.process_event(e)
        ]

        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, batch_size=2, max_wait=10.0
        )
        for event in events:
            consumer(event, event.created_at, event.created_at)
        sim.run()
        produced = [rec for batch in batches for rec in batch.recommendations]
        assert produced == expected

    def test_batched_flush_publishes_one_batch_per_triggering_event(self):
        # Ten A's follow three B's; an A's partition is its hash, so a
        # trigger's audience spans both partitions.
        snapshot = GraphSnapshot.from_edges(
            [(a, b) for a in range(10) for b in (20, 21, 22)], num_nodes=40
        )
        events = [
            EdgeEvent(0.0, 20, 30),
            EdgeEvent(1.0, 20, 31),
            EdgeEvent(2.0, 21, 30),  # triggers 30
            EdgeEvent(3.0, 21, 31),  # triggers 31
            EdgeEvent(4.0, 22, 30),  # triggers 30 again
        ]
        per_event_cluster = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        expected = [(e, per_event_cluster.process_event(e)) for e in events]
        expected = [(e, recs) for e, recs in expected if recs]
        assert len(expected) == 3
        owners = {
            per_event_cluster.partitioner.partition_of(rec.recipient)
            for rec in expected[0][1]
        }
        assert owners == {0, 1}

        sim = DiscreteEventSimulator()
        cluster = Cluster.build(snapshot, PARAMS, ClusterConfig(num_partitions=2))
        output: MessageQueue[CandidateBatch] = MessageQueue(sim, "push")
        batches: list[CandidateBatch] = []
        output.subscribe(lambda batch, pub, dlv: batches.append(batch))
        consumer = DetectionConsumer(
            sim, cluster, output, LatencyBreakdown(), batch_size=len(events),
            max_wait=10.0,
        )
        for event in events:
            consumer(event, event.created_at, event.created_at)
        sim.run()
        assert consumer.cluster_calls == 1
        assert [
            (batch.origin_event, list(batch.recommendations)) for batch in batches
        ] == expected

    def test_batch_size_one_keeps_legacy_behavior(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, batch_size=1
        )
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        consumer(EdgeEvent(1.0, B2, C2), 1.0, 1.0)
        sim.run()
        assert len(batches) == 1
        assert batches[0].batching_seconds == 0.0
        assert "batching" not in breakdown.stages()

    def test_admission_sheds_before_buffering(self, rig):
        sim, cluster, output, breakdown, batches = rig
        admission = AdmissionController(
            rate=1.0, burst=1.0, policy=AdmissionPolicy.DROP
        )
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, admission=admission, batch_size=4
        )
        for i in range(10):
            consumer(EdgeEvent(float(i), B1, C2), 0.0, 0.0)
        assert consumer.events_shed == 9
        assert consumer.pending_events == 1


class TestLiveReconfigure:
    """The adaptive controller's actuation path: configure() on a live rig."""

    def test_shrink_below_buffer_flushes_immediately(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, batch_size=100, max_wait=50.0
        )
        for i in range(3):
            consumer(EdgeEvent(float(i), B1, C2), float(i), float(i))
        assert consumer.pending_events == 3
        consumer.configure(batch_size=2)
        # De-escalation must not strand the buffer behind the old timer.
        assert consumer.pending_events == 0
        assert consumer.events_consumed == 3
        assert consumer.cluster_calls == 1

    def test_shortened_max_wait_rearms_flush_timer(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, batch_size=100, max_wait=50.0
        )

        def deliver_then_retune():
            consumer(EdgeEvent(0.0, B1, C2), 0.0, sim.clock.now())
            consumer.configure(max_wait=2.0)

        sim.schedule_at(0.0, deliver_then_retune)
        sim.run()
        # The new 2 s deadline flushed; without the re-arm the buffer
        # would have waited the stale 50 s (the superseded timer still
        # fires, harmlessly, thanks to the epoch guard).
        assert consumer.pending_events == 0
        assert consumer.events_consumed == 1
        assert breakdown.stage("batching").percentile(50) == pytest.approx(2.0)

    def test_cluster_calls_counts_round_trips(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(sim, cluster, output, breakdown)
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        consumer(EdgeEvent(1.0, B2, C2), 1.0, 1.0)
        assert consumer.cluster_calls == 2  # size 1: one flush per event

    def test_backlog_sampled_per_event_with_any_admission(self, rig):
        sim, cluster, output, breakdown, batches = rig
        # No backlog_limit: the sample must still happen (the monitor and
        # the adaptive controller read the same signal).
        admission = AdmissionController(rate=1000.0, burst=1000.0)
        consumer = DetectionConsumer(
            sim, cluster, output, breakdown, admission=admission
        )
        consumer.last_backlog = -1
        consumer(EdgeEvent(0.0, B1, C2), 0.0, 0.0)
        assert consumer.last_backlog == 0  # synchronous transport: drained

    def test_sample_backlog_reads_transport(self, rig):
        sim, cluster, output, breakdown, batches = rig
        consumer = DetectionConsumer(sim, cluster, output, breakdown)
        assert consumer.sample_backlog() == 0
        assert consumer.last_backlog == 0
