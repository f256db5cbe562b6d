"""Integration tests for the partitioned / replicated cluster.

The load-bearing property: for any partition count, the cluster's gathered
output must equal the single-machine engine's output, because partitioning
by A makes every intersection local (paper §2).
"""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AllReplicasDown,
    Cluster,
    ClusterConfig,
    ModuloPartitioner,
)
from repro.cluster.cluster import fault_injecting_channel_factory
from repro.cluster.rpc import SimulatedChannel
from repro.core import DetectionParams, EdgeEvent, EventBatch, MotifEngine
from repro.gen import StreamConfig, TwitterGraphConfig, generate_event_stream, generate_follow_graph

from tests.conftest import A2, B1, B2, C2

PARAMS = DetectionParams(k=2, tau=600.0)


def small_workload(seed=0, num_users=300, rate=4.0, duration=200.0):
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=num_users, mean_followings=10.0, seed=seed)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=num_users,
            duration=duration,
            background_rate=rate,
            seed=seed,
        )
    )
    return snapshot, events


class TestClusterBasics:
    def test_figure1_through_cluster(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3),
        )
        assert cluster.process_event(EdgeEvent(0.0, B1, C2)) == []
        recs = cluster.process_event(EdgeEvent(10.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in recs] == [(A2, C2)]

    def test_default_config_is_production_shape(self, figure1_snapshot):
        cluster = Cluster.build(figure1_snapshot)
        assert cluster.broker.num_partitions == 20
        assert cluster.params.k == 3

    def test_every_partition_sees_every_event(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=4)
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        for replica_set in cluster.replica_sets:
            assert replica_set.replicas[0].events_processed() == 1

    def test_recipients_disjoint_across_partitions(self):
        snapshot, events = small_workload(seed=3)
        cluster = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=5),
            partitioner=ModuloPartitioner(5),
        )
        for event in events:
            for rec in cluster.process_event(event):
                assert rec.recipient % 5 == cluster.partitioner.partition_of(
                    rec.recipient
                )

    def test_query_audience_merges_partitions(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=3)
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert cluster.query_audience(C2, now=2.0) == [A2]

    def test_prune_sweeps_fleet(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        removed = cluster.prune(now=10_000.0)
        # One stale edge per distinct D: both in-process partitions share one.
        assert removed == 1


class TestPartitionEquivalence:
    """Cluster output == single-machine output, for every partition count."""

    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 5, 8])
    def test_equivalence_on_synthetic_workload(self, num_partitions):
        snapshot, events = small_workload(seed=1)
        single = MotifEngine.from_snapshot(snapshot, PARAMS)
        expected = sorted(
            (r.created_at, r.recipient, r.candidate)
            for e in events
            for r in single.process(e)  # the oracle, by name
        )
        cluster = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=num_partitions)
        )
        got = sorted(
            (r.created_at, r.recipient, r.candidate)
            for r in cluster.process_stream(events)
        )
        assert got == expected
        assert len(got) > 0, "workload produced no motifs; test is vacuous"

    @settings(max_examples=10, deadline=None)
    @given(num_partitions=st.integers(1, 6), seed=st.integers(0, 5))
    def test_equivalence_property(self, num_partitions, seed):
        snapshot, events = small_workload(
            seed=seed, num_users=120, rate=3.0, duration=120.0
        )
        single = MotifEngine.from_snapshot(snapshot, PARAMS)
        expected = sorted(
            (r.created_at, r.recipient, r.candidate)
            for e in events
            for r in single.process(e)  # the oracle, by name
        )
        cluster = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=num_partitions)
        )
        got = sorted(
            (r.created_at, r.recipient, r.candidate)
            for r in cluster.process_stream(events)
        )
        assert got == expected


class TestReplication:
    def build_replicated(self, snapshot, replicas=2, partitions=2):
        return Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=partitions, replication_factor=replicas),
        )

    def test_replicas_stay_identical(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        cluster.process_event(EdgeEvent(1.0, B2, C2))
        for replica_set in cluster.replica_sets:
            first, second = replica_set.replicas
            assert (
                first.engine.dynamic_index.num_edges
                == second.engine.dynamic_index.num_edges
            )

    def test_no_duplicate_output_with_replicas(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        recs = cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert len(recs) == 1  # primary only, not once per replica

    def test_failover_on_dead_replica(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot)
        for replica_set in cluster.replica_sets:
            replica_set.mark_down(0)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        recs = cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in recs] == [(A2, C2)]

    def test_all_replicas_down_loses_events_but_serves(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, replicas=1, partitions=2)
        owner = cluster.partitioner.partition_of(A2)
        cluster.replica_sets[owner].mark_down(0)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        recs = cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert recs == []  # A2's shard was down; no crash, event lost there
        assert cluster.broker.stats.partitions_lost_events == 2

    def test_resync_repairs_stale_replica(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, partitions=1)
        replica_set = cluster.replica_sets[0]
        replica_set.mark_down(1)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        assert replica_set.missed_events[1] == 1
        replica_set.resync(1)
        assert replica_set.missed_events[1] == 0
        stale, healthy = replica_set.replicas[1], replica_set.replicas[0]
        assert (
            stale.engine.dynamic_index.num_edges
            == healthy.engine.dynamic_index.num_edges
        )
        # After resync the repaired replica answers reads correctly.
        cluster.process_event(EdgeEvent(1.0, B2, C2))
        audience, _ = replica_set.query_audience(C2, now=2.0)
        assert audience == [A2]

    def test_resync_on_a_shared_d_keeps_it(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, partitions=1)
        replica_set = cluster.replica_sets[0]
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        replica_set.mark_down(1)
        replica_set.resync(1)
        index = replica_set.replicas[1].engine.dynamic_index
        assert index is replica_set.replicas[0].engine.dynamic_index
        assert index.num_edges == 1
        assert [e.source for e in index.fresh_sources(C2, 1.0, 600.0)] == [B1]

    def test_replica_missing_a_batch_loses_candidates_not_d(
        self, figure1_snapshot
    ):
        """Every replica of a set reads one D: a replica whose channel is
        down, or raises, loses that batch's candidates and counts the
        miss, but keeps reading the shared D."""

        def channels(p, r):
            # Replica 2's channel raises on every call.
            return SimulatedChannel(
                f"p{p}/r{r}",
                failure_rate=1.0 if r == 2 else 0.0,
                rng=random.Random(0),
            )

        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=1, replication_factor=3),
            channel_factory=channels,
        )
        replica_set = cluster.replica_sets[0]
        replica_set.mark_down(1)
        assert cluster.process_batch(
            EventBatch.from_events([EdgeEvent(0.0, B1, C2)])
        ) == []
        assert replica_set.missed_events == [0, 1, 1]
        assert [r.events_processed() for r in replica_set.replicas] == [1, 0, 0]
        assert len({id(r.engine.dynamic_index) for r in replica_set.replicas}) == 1
        # Replica 1 rejoins without resync and takes over as primary: its
        # D holds the edge it never saw, so the motif still completes.
        replica_set.mark_up(1)
        replica_set.mark_down(0)
        recs = cluster.process_batch(
            EventBatch.from_events([EdgeEvent(1.0, B2, C2)])
        )
        assert [(r.recipient, r.candidate) for r in recs] == [(A2, C2)]
        assert replica_set.missed_events == [1, 1, 2]

    def test_resync_without_healthy_source_raises(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, partitions=1)
        replica_set = cluster.replica_sets[0]
        replica_set.mark_down(0)
        replica_set.mark_down(1)
        with pytest.raises(AllReplicasDown):
            replica_set.resync(0)

    def test_resync_clears_only_its_own_ledger(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, partitions=1, replicas=3)
        replica_set = cluster.replica_sets[0]
        replica_set.mark_down(1)
        replica_set.mark_down(2)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        assert replica_set.missed_events == [0, 1, 1]
        replica_set.resync(2)
        assert replica_set.missed_events == [0, 1, 0]
        assert replica_set.healthy_replicas() == [0, 2]

    def test_refused_resync_leaves_the_replica_down(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, partitions=1)
        replica_set = cluster.replica_sets[0]
        replica_set.mark_down(1)
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        replica_set.mark_down(0)
        with pytest.raises(AllReplicasDown):
            replica_set.resync(1)
        assert replica_set.missed_events == [0, 1]
        assert replica_set.healthy_replicas() == []

    def test_reads_round_robin_across_replicas(self, figure1_snapshot):
        cluster = self.build_replicated(figure1_snapshot, partitions=1, replicas=3)
        replica_set = cluster.replica_sets[0]
        for _ in range(9):
            replica_set.query_audience(C2, now=0.0)
        calls = [ch.stats.calls for ch in replica_set.channels]
        assert calls == [3, 3, 3]

    def test_chaos_channels_do_not_crash_cluster(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, replication_factor=2),
            channel_factory=fault_injecting_channel_factory(0.2, seed=1),
        )
        for i in range(50):
            cluster.process_event(EdgeEvent(float(i), B1, C2))


class TestMemoryAccounting:
    def test_d_memory_grows_with_partitions_s_does_not(self):
        snapshot, events = small_workload(seed=2)
        reports = {}
        for transport, p in (
            ("inprocess", 1), ("inprocess", 4), ("shm", 4)
        ):
            with Cluster.build(
                snapshot,
                PARAMS,
                ClusterConfig(num_partitions=p, transport=transport),
            ) as cluster:
                cluster.process_stream(events)
                reports[transport, p] = cluster.memory_report()
        single = reports["inprocess", 1]["dynamic_index"]
        # D is one copy per address space: flat in P in-process, one per
        # worker (~P times the single copy) across processes.
        assert reports["inprocess", 4]["dynamic_index"] == pytest.approx(
            single, rel=0.05
        )
        assert reports["shm", 4]["dynamic_index"] == pytest.approx(
            4 * single, rel=0.05
        )
        # S shards hold disjoint edges, so S grows sublinearly in P: only
        # the per-B dict/bookkeeping overhead is duplicated, never payload.
        for key in (("inprocess", 4), ("shm", 4)):
            assert (
                reports[key]["static_index"]
                < 0.8 * 4 * reports["inprocess", 1]["static_index"]
            )

    def test_s_edges_partition_exactly(self):
        snapshot, _events = small_workload(seed=2)
        single_edges = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=1)
        ).replica_sets[0].replicas[0].engine.static_index.num_edges
        cluster = Cluster.build(snapshot, PARAMS, ClusterConfig(num_partitions=4))
        sharded = sum(
            rs.replicas[0].engine.static_index.num_edges
            for rs in cluster.replica_sets
        )
        assert sharded == single_edges

    @pytest.mark.parametrize("num_partitions", [1, 20])
    def test_bulk_load_temporaries_stay_below_the_shards(self, num_partitions):
        """Cluster.build's peak allocation is at most twice the S shards it
        returns: the load keeps no whole-graph temporaries (no per-edge
        Python objects, no graph-sized sort buffers) next to its output."""
        snapshot = generate_follow_graph(
            TwitterGraphConfig(num_users=20_000, mean_followings=15.0, seed=3)
        )
        gc.collect()
        tracemalloc.start()
        try:
            cluster = Cluster.build(
                snapshot, PARAMS, ClusterConfig(num_partitions=num_partitions)
            )
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shard_bytes = sum(
            rs.replicas[0].engine.static_index.memory_bytes()
            for rs in cluster.replica_sets
        )
        assert peak <= 2 * shard_bytes
