"""Unit tests for the broker's fan-out / gather coordination."""

import pytest

from repro.cluster import Broker, Cluster, ClusterConfig
from repro.core import DetectionParams, EdgeEvent
from repro.core.batch import EventBatch

from tests.conftest import A2, B1, B2, C2

PARAMS = DetectionParams(k=2, tau=600.0)


@pytest.fixture
def cluster(figure1_snapshot):
    return Cluster.build(
        figure1_snapshot,
        PARAMS,
        ClusterConfig(num_partitions=3, replication_factor=2),
    )


class TestBrokerStats:
    def test_fan_out_counts(self, cluster):
        broker = cluster.broker
        broker.process_event(EdgeEvent(0.0, B1, C2))
        broker.process_event(EdgeEvent(1.0, B2, C2))
        assert broker.stats.events_routed == 2
        assert broker.stats.fan_out_calls == 6  # 2 events x 3 partitions
        assert broker.stats.gather_results == 1  # the single A2 candidate

    def test_lost_partition_counted(self, cluster):
        broker = cluster.broker
        for replica_set in cluster.replica_sets[:1]:
            replica_set.mark_down(0)
            replica_set.mark_down(1)
        broker.process_event(EdgeEvent(0.0, B1, C2))
        assert broker.stats.partitions_lost_events == 1
        # The other two partitions still consumed the event.
        assert cluster.replica_sets[1].replicas[0].events_processed() == 1

    def test_empty_replica_sets_rejected(self):
        with pytest.raises(ValueError):
            Broker([])


class TestProcessEventIsTheOracle:
    """``Broker.process_event`` is the reference the batched path is
    checked against (the equivalence suites, E24's ``verify.py``), so it
    must keep its own implementation lane — ``ingest`` -> ``on_edge`` ->
    ``_audience`` — and never become a one-event ``process_batch``: that
    would turn every such check into a self-comparison."""

    def test_answers_with_the_batched_kernel_broken(self, cluster, monkeypatch):
        from repro.core.diamond import DiamondDetector

        def broken(self, batch, now=None, triggers=None):
            raise AssertionError("the oracle must not touch process_batch")

        monkeypatch.setattr(DiamondDetector, "process_batch", broken)
        broker = cluster.broker
        assert broker.process_event(EdgeEvent(0.0, B1, C2))[0] == []
        recs, _latency = broker.process_event(EdgeEvent(1.0, B2, C2))
        assert [(rec.recipient, rec.candidate) for rec in recs] == [(A2, C2)]
        # ...and the lane the streaming tier uses at every size is the
        # other one: a one-event batch does reach the batched kernel.
        with pytest.raises(AssertionError, match="must not touch"):
            broker.process_batch(EventBatch.from_events([EdgeEvent(2.0, B1, C2)]))
        with pytest.raises(AssertionError, match="must not touch"):
            cluster.process_stream([EdgeEvent(3.0, B1, C2)])

    def test_runs_on_edge_and_audience(self, cluster, monkeypatch):
        from repro.core.diamond import DiamondDetector

        calls = []
        on_edge, audience = DiamondDetector.on_edge, DiamondDetector._audience

        def spy_on_edge(self, event, now=None):
            calls.append("on_edge")
            return on_edge(self, event, now)

        def spy_audience(self, *args, **kwargs):
            calls.append("_audience")
            return audience(self, *args, **kwargs)

        monkeypatch.setattr(DiamondDetector, "on_edge", spy_on_edge)
        monkeypatch.setattr(DiamondDetector, "_audience", spy_audience)
        cluster.broker.process_event(EdgeEvent(0.0, B1, C2))
        cluster.broker.process_event(EdgeEvent(1.0, B2, C2))
        assert "on_edge" in calls and "_audience" in calls


class TestWorkerDeathMidStream:
    """A dead partition worker must cost exactly its events, nothing more.

    The broker's contract under the worker transport mirrors the
    all-replicas-down path: the dead partition's events are counted in
    ``partitions_lost_events`` and the topology keeps running on the
    healthy partitions.
    """

    @pytest.fixture
    def process_cluster(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport="shm"),
        )
        yield cluster
        cluster.close()

    @staticmethod
    def _batch(start: float, n: int) -> EventBatch:
        events = [EdgeEvent(start + i, B1 if i % 2 else B2, C2) for i in range(n)]
        return EventBatch.from_events(events)

    def test_dead_worker_counts_lost_events_and_cluster_keeps_running(
        self, process_cluster
    ):
        broker = process_cluster.broker
        transport = process_cluster.transport
        broker.process_batch(self._batch(0.0, 4))
        assert broker.stats.partitions_lost_events == 0

        # Kill one worker outright (a crashed machine, not a clean stop).
        victim = transport._workers[0]
        victim.process.terminate()
        victim.process.join(timeout=5.0)

        # One reply per surviving partition; the dead one is charged.
        replies, _latency = broker.process_batch(self._batch(10.0, 6))
        assert len(replies) == 2
        assert broker.stats.partitions_lost_events == 6
        assert transport.workers_alive() == 2

        # The healthy partitions keep serving subsequent batches, and the
        # dead one keeps being charged without being retried.
        broker.process_batch(self._batch(20.0, 5))
        assert broker.stats.partitions_lost_events == 11
        health = {p.partition_id: p for p in transport.health()}
        assert not health[victim.key].worker_alive
        alive = [p for p in health.values() if p.worker_alive]
        assert len(alive) == 2
        for partition in alive:
            assert partition.replicas[0].events_processed == 15

    def test_dead_worker_mid_pipeline_loses_only_its_partition(
        self, process_cluster
    ):
        broker = process_cluster.broker
        transport = process_cluster.transport
        # Two batches in flight, then the worker dies before the gathers.
        broker.submit_batch(self._batch(0.0, 3))
        broker.submit_batch(self._batch(5.0, 3))
        victim = transport._workers[1]
        victim.process.terminate()
        victim.process.join(timeout=5.0)
        broker.gather_batch()
        broker.gather_batch()
        # The victim may have processed 0, 1, or 2 of the in-flight batches
        # before dying; whatever it missed is charged, nothing else is.
        assert broker.stats.partitions_lost_events in (0, 3, 6)
        replies, _ = broker.process_batch(self._batch(10.0, 2))
        assert len(replies) == transport.workers_alive() == 2

    def test_recommendations_from_surviving_partitions_still_flow(
        self, figure1_snapshot
    ):
        with Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport="shm"),
        ) as cluster:
            owner = cluster.partitioner.partition_of(A2)
            victim_id = (owner + 1) % 3  # does NOT own the only recipient
            victim = next(
                w
                for w in cluster.transport._workers
                if w.key == victim_id
            )
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            recs = cluster.process_stream(
                [EdgeEvent(0.0, B1, C2), EdgeEvent(1.0, B2, C2)], batch_size=2
            )
            assert [(r.recipient, r.candidate) for r in recs] == [(A2, C2)]


class TestBrokerQueries:
    def test_query_audience_skips_dead_partitions(self, cluster):
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        cluster.process_event(EdgeEvent(1.0, B2, C2))
        owner = cluster.partitioner.partition_of(A2)
        # Kill a partition that does NOT own A2.
        victim = (owner + 1) % 3
        cluster.replica_sets[victim].mark_down(0)
        cluster.replica_sets[victim].mark_down(1)
        audience, _latency = cluster.broker.query_audience(C2, now=2.0)
        assert audience == [A2]

    def test_query_audience_loses_dead_owner(self, cluster):
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        cluster.process_event(EdgeEvent(1.0, B2, C2))
        owner = cluster.partitioner.partition_of(A2)
        cluster.replica_sets[owner].mark_down(0)
        cluster.replica_sets[owner].mark_down(1)
        audience, _latency = cluster.broker.query_audience(C2, now=2.0)
        assert audience == []  # availability over completeness

    def test_gather_latency_is_slowest_partition(self, figure1_snapshot):
        from repro.cluster.rpc import SimulatedChannel

        def slow_channel(p, r):
            return SimulatedChannel(
                f"p{p}/r{r}", latency_model=lambda p=p: 0.001 * (p + 1)
            )

        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3),
            channel_factory=slow_channel,
        )
        _recs, latency = cluster.broker.process_event(EdgeEvent(0.0, B1, C2))
        assert latency == pytest.approx(0.003)  # partition 2 is slowest
