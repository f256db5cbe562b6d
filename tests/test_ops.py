"""Unit tests for the ops package: metrics, monitoring, admission control."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams, EdgeEvent
from repro.ops import (
    AdmissionController,
    AdmissionPolicy,
    ClusterMonitor,
    MetricsRegistry,
    TokenBucket,
)

from tests.conftest import B1, C2

PARAMS = DetectionParams(k=2, tau=600.0)


class TestMetricsRegistry:
    def test_counter_identity_and_increment(self):
        registry = MetricsRegistry()
        a = registry.counter("events", partition="1")
        b = registry.counter("events", partition="1")
        assert a is b
        a.increment()
        a.increment(4)
        assert b.value == 5

    def test_counter_never_decrements(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("x").increment(-1)

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("events", partition="1").increment()
        registry.counter("events", partition="2").increment(2)
        snap = registry.snapshot()
        assert snap["events{partition=1}"] == 1
        assert snap["events{partition=2}"] == 2

    def test_label_order_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("x", p="1", r="0")
        b = registry.counter("x", r="0", p="1")
        assert a is b

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("memory")
        gauge.set(100.0)
        gauge.add(-20.0)
        assert registry.snapshot()["memory"] == 80.0

    def test_histogram(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency")
        for v in (0.001, 0.002, 0.003):
            histogram.observe(v)
        snap = registry.snapshot()["latency"]
        assert snap["count"] == 3
        assert snap["p50"] == 0.002


class TestTokenBucket:
    def test_burst_then_refusal(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)

    def test_refill_over_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0)
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(1.0)  # 2 tokens refilled, capped at burst

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.try_acquire(0.0)
        bucket.try_acquire(100.0)
        assert bucket.available <= 2.0

    def test_clock_must_be_monotonic(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.try_acquire(5.0)
        with pytest.raises(ValueError, match="backwards"):
            bucket.try_acquire(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmissionController:
    def test_steady_rate_admitted(self):
        controller = AdmissionController(rate=10.0, burst=5.0)
        admitted = sum(controller.admit(now=i * 0.1) for i in range(100))
        assert admitted == 100
        assert controller.shed_fraction() == 0.0

    def test_overload_shed_with_drop_policy(self):
        controller = AdmissionController(rate=10.0, burst=5.0)
        admitted = sum(controller.admit(now=0.0) for _ in range(100))
        assert admitted == 5  # only the burst credit
        assert controller.shed_fraction() == pytest.approx(0.95)

    def test_sample_policy_keeps_one_in_n(self):
        controller = AdmissionController(
            rate=10.0, burst=5.0,
            policy=AdmissionPolicy.SAMPLE, sample_one_in=10,
        )
        admitted = sum(controller.admit(now=0.0) for _ in range(105))
        assert admitted == 5 + 10  # burst + 1-in-10 of the 100 overflow

    def test_counters_published(self):
        registry = MetricsRegistry()
        controller = AdmissionController(rate=1.0, burst=1.0, registry=registry)
        controller.admit(0.0)
        controller.admit(0.0)
        snap = registry.snapshot()
        assert snap["admission_offered"] == 2
        assert snap["admission_admitted"] == 1
        assert snap["admission_shed"] == 1


class TestPressureShed:
    def test_forces_shedding_despite_token_budget(self):
        controller = AdmissionController(rate=1000.0, burst=1000.0)
        controller.set_pressure_shed(True)
        admitted = sum(controller.admit(now=0.0) for _ in range(20))
        assert admitted == 0  # budget is irrelevant while the rung is engaged

    def test_release_restores_admission(self):
        controller = AdmissionController(rate=1000.0, burst=1000.0)
        controller.set_pressure_shed(True)
        assert not controller.admit(now=0.0)
        controller.set_pressure_shed(False)
        assert controller.admit(now=1.0)
        assert not controller.pressure_shed

    def test_sample_policy_keeps_trace_while_shedding(self):
        # The 1-in-N trace is what keeps the recovery signal alive.
        controller = AdmissionController(
            rate=1000.0, burst=1000.0,
            policy=AdmissionPolicy.SAMPLE, sample_one_in=10,
        )
        controller.set_pressure_shed(True)
        admitted = sum(controller.admit(now=0.0) for _ in range(100))
        assert admitted == 10

    def test_gauge_and_counter_published(self):
        registry = MetricsRegistry()
        controller = AdmissionController(
            rate=1000.0, burst=1000.0, registry=registry
        )
        controller.set_pressure_shed(True)
        controller.admit(0.0)
        snap = registry.snapshot()
        assert snap["admission_pressure_shed"] == 1.0
        assert snap["admission_pressure_overflow"] == 1
        assert snap["admission_shed"] == 1
        controller.set_pressure_shed(False)
        assert registry.snapshot()["admission_pressure_shed"] == 0.0


class TestClusterMonitor:
    def build(self, figure1_snapshot, replicas=2):
        return Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, replication_factor=replicas),
        )

    def test_healthy_fleet_no_alerts(self, figure1_snapshot):
        cluster = self.build(figure1_snapshot)
        monitor = ClusterMonitor(cluster)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        assert monitor.alerts() == []
        health = monitor.poll()
        assert len(health) == 2
        assert all(p.healthy_replicas == 2 for p in health)
        assert all(not p.at_risk for p in health)

    def test_single_replica_alert(self, figure1_snapshot):
        cluster = self.build(figure1_snapshot)
        cluster.replica_sets[0].mark_down(1)
        monitor = ClusterMonitor(cluster)
        alerts = monitor.alerts()
        assert any("single healthy replica" in a for a in alerts)

    def test_all_down_alert(self, figure1_snapshot):
        cluster = self.build(figure1_snapshot)
        cluster.replica_sets[1].mark_down(0)
        cluster.replica_sets[1].mark_down(1)
        alerts = ClusterMonitor(cluster).alerts()
        assert any("ALL REPLICAS DOWN" in a for a in alerts)

    def test_divergence_alert_after_missed_events(self, figure1_snapshot):
        cluster = self.build(figure1_snapshot)
        cluster.replica_sets[0].mark_down(1)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        cluster.replica_sets[0].mark_up(1)  # rejoin WITHOUT resync
        monitor = ClusterMonitor(cluster)
        alerts = monitor.alerts()
        assert any("divergence" in a for a in alerts)

    def test_metrics_published_per_replica(self, figure1_snapshot):
        cluster = self.build(figure1_snapshot)
        monitor = ClusterMonitor(cluster)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        monitor.poll()
        snap = monitor.registry.snapshot()
        assert snap["replica_available{partition=0,replica=0}"] == 1.0
        assert snap["d_edges{partition=1,replica=1}"] == 1

    def test_transport_backlog_gauge_published_unconditionally(
        self, figure1_snapshot
    ):
        # The adaptive controller and dashboards read one overload signal
        # on every transport — even the synchronous one, where it is 0.
        cluster = self.build(figure1_snapshot)
        monitor = ClusterMonitor(cluster)
        monitor.poll()
        assert monitor.registry.snapshot()["transport_backlog"] == 0.0


class TestBacklogGatedAdmission:
    def test_backlog_over_limit_sheds_despite_token_budget(self):
        controller = AdmissionController(rate=1000.0, burst=1000.0, backlog_limit=10)
        assert controller.admit(now=0.0, backlog=10)  # at the limit: fine
        assert not controller.admit(now=0.0, backlog=11)  # over: shed
        assert controller.admit(now=0.0, backlog=0)  # drained: admit again

    def test_backlog_ignored_without_limit(self):
        controller = AdmissionController(rate=1000.0, burst=1000.0)
        assert controller.admit(now=0.0, backlog=10**6)

    def test_backlog_overflow_still_sampled(self):
        controller = AdmissionController(
            rate=1000.0, burst=1000.0,
            policy=AdmissionPolicy.SAMPLE, sample_one_in=10,
            backlog_limit=1,
        )
        admitted = sum(controller.admit(now=0.0, backlog=5) for _ in range(100))
        assert admitted == 10  # the statistical trace survives the gate

    def test_backlog_counter_published(self):
        registry = MetricsRegistry()
        controller = AdmissionController(
            rate=1000.0, burst=1000.0, registry=registry, backlog_limit=1
        )
        controller.admit(0.0, backlog=5)
        snap = registry.snapshot()
        assert snap["admission_backlog_overflow"] == 1
        assert snap["admission_shed"] == 1

    def test_backlog_limit_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(rate=1.0, burst=1.0, backlog_limit=0)


class TestMonitorOverWorkerTransport:
    def test_poll_reports_worker_liveness_and_backlog(
        self, figure1_snapshot, monkeypatch
    ):
        from repro.cluster import shm

        # A host without /dev/shm: the worker wire runs queue-only.
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        cluster = Cluster.build(
            figure1_snapshot,
            DetectionParams(k=2, tau=600.0),
            ClusterConfig(
                num_partitions=2, replication_factor=2, transport="shm"
            ),
        )
        try:
            cluster.process_stream([EdgeEvent(0.0, B1, C2)])
            monitor = ClusterMonitor(cluster)
            health = monitor.poll()
            assert len(health) == 2
            assert all(p.worker_alive for p in health)
            assert all(p.backlog == 0 for p in health)
            assert all(p.healthy_replicas == 2 for p in health)
            snap = monitor.registry.snapshot()
            assert snap["worker_alive{partition=0}"] == 1.0
            assert snap["worker_backlog{partition=1}"] == 0
            # A queue-only wire publishes the ring wire's gauges in the same
            # shape: nothing framed, its traffic counted on the pickle lane.
            assert snap["shm_frames_shm"] == 0.0
            assert snap["shm_slab_slots"] == 0.0
            assert snap["shm_control_pickle"] > 0
        finally:
            cluster.close()

    def test_dead_worker_alert(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            DetectionParams(k=2, tau=600.0),
            ClusterConfig(num_partitions=2, transport="shm"),
        )
        try:
            victim = cluster.transport._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            monitor = ClusterMonitor(cluster)
            health = {p.partition_id: p for p in monitor.poll()}
            assert not health[victim.key].worker_alive
            assert health[victim.key].healthy_replicas == 0
            alerts = monitor.alerts()
            assert any("WORKER DEAD" in a for a in alerts)
        finally:
            cluster.close()


class TestServingGauges:
    def test_serving_gauges_published_when_wired(self, figure1_snapshot):
        import numpy as np

        from repro.serving import ServingCache

        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        cache = ServingCache(k=2)
        cache.update_columns(
            np.array([1, 2], dtype=np.int64),
            np.array([10, 20], dtype=np.int64),
            np.array([1.0, 2.0]),
            np.array([0.0, 0.0]),
        )
        cache.get_recommendations(1)       # hit
        cache.get_recommendations(999)     # miss
        monitor = ClusterMonitor(cluster, serving=cache)
        monitor.poll()
        snap = monitor.registry.snapshot()
        assert snap["serving_hit_rate"] == 0.5
        assert snap["serving_cache_users"] == 2.0
        assert snap["serving_bytes_per_user"] > 0
        # A lone cache is its own single shard: same per-shard gauges.
        assert snap["serving_shard_0_users"] == 2.0
        assert snap["serving_shard_0_writer_lag_updates"] == 0.0

    def test_serving_gauges_absent_without_cache(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        monitor = ClusterMonitor(cluster)
        monitor.poll()
        assert "serving_hit_rate" not in monitor.registry.snapshot()

    def test_sharded_gauges_weight_unevenly_grown_shards(
        self, figure1_snapshot
    ):
        import numpy as np

        from repro.serving import ShardedServingCache

        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        sharded = ShardedServingCache(num_shards=2, k=2, capacity=8)
        # Skew the population: hundreds of users on one shard (several
        # capacity doublings), a handful on the other (still at 8 slots).
        hot = [u for u in range(4_000) if sharded.shard_of(u) == 0][:500]
        cold = [u for u in range(4_000) if sharded.shard_of(u) == 1][:1]
        users = np.array(hot + cold, dtype=np.int64)
        sharded.update_columns(
            users,
            np.ones(len(users), np.int64),
            np.ones(len(users)),
            np.zeros(len(users)),
        )
        assert sharded.shards[0].nbytes() > sharded.shards[1].nbytes()
        monitor = ClusterMonitor(cluster, serving=sharded)
        monitor.poll()
        snap = monitor.registry.snapshot()
        assert snap["serving_cache_users"] == 501.0
        # Sum-then-ratio weighting: total bytes over total users, which
        # the hot shard dominates — not a mean of per-shard ratios (the
        # near-empty cold shard's capacity amortizes over one user, so
        # its per-shard ratio would drag the average far off).
        total_ratio = sharded.nbytes() / 501
        mean_of_ratios = sum(
            s.nbytes() / s.users_cached for s in sharded.shards
        ) / 2
        assert snap["serving_bytes_per_user"] == pytest.approx(total_ratio)
        assert abs(snap["serving_bytes_per_user"] - mean_of_ratios) > (
            0.5 * total_ratio
        )
        # Per-shard visibility rides along.
        assert snap["serving_shard_0_users"] == 500.0
        assert snap["serving_shard_1_users"] == 1.0
        assert snap["serving_shard_0_evictions"] == 0.0

    def test_worker_reader_gauges_surface_writer_lag(self, figure1_snapshot):
        import numpy as np

        from repro.cluster import shm_available
        from repro.cluster.shm import sweep_segments
        from repro.serving import (
            ServingCache,
            ServingCacheReader,
            ShardedServingCacheReader,
            create_serving_arena,
        )

        if not shm_available():
            pytest.skip("POSIX shared memory unavailable on this host")
        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        spec = create_serving_arena(k=2, capacity=8)
        writer = ServingCache.attach_writer(spec)
        reader = ShardedServingCacheReader([ServingCacheReader(spec)])
        try:
            writer.update_columns(
                np.array([1, 2], dtype=np.int64),
                np.array([10, 20], dtype=np.int64),
                np.array([1.0, 2.0]),
                np.array([0.0, 0.0]),
            )
            # Parent posted 3 serving-bearing messages; the worker has
            # merged 1 — the monitor must surface the lag of 2.
            reader.shards[0].posted_updates = 3
            monitor = ClusterMonitor(cluster, serving=reader)
            monitor.poll()
            snap = monitor.registry.snapshot()
            assert snap["serving_cache_users"] == 2.0
            assert snap["serving_shard_0_users"] == 2.0
            assert snap["serving_shard_0_writer_lag_updates"] == 2.0
            assert snap["serving_shard_0_generation"] >= 1.0
            assert snap["serving_shard_0_attaches"] >= 0.0
            # One shard_stats() schema whichever process holds the pen:
            # the writer's own row has the reader's keys, with no lag.
            [attached], [own] = reader.shard_stats(), writer.shard_stats()
            assert sorted(attached) == sorted(own) == sorted(
                "users updates rows_ingested evictions nbytes generation "
                "attaches writer_lag_updates last_now".split()
            )
            assert own["writer_lag_updates"] == 0.0
            assert own["rows_ingested"] == attached["rows_ingested"] == 2.0
        finally:
            reader.close()
            writer.close()
            sweep_segments([spec.control_name])
