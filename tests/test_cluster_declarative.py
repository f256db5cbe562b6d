"""Declarative motif programs deployed fleet-wide via detector factories."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import ActionType, DetectionParams, EdgeEvent
from repro.motif import DeclarativeDetector, co_retweet_spec, diamond_spec

from tests.conftest import A2, B1, B2, C2, FIGURE1_FOLLOWS
from repro.graph import GraphSnapshot

PARAMS = DetectionParams(k=2, tau=600.0)


def declarative_factory(*specs):
    def factory(static_shard, dynamic_index):
        return [
            DeclarativeDetector(
                spec,
                static_shard,
                dynamic_index,
                inserts_edges=False,
                collect_statistics=False,
            )
            for spec in specs
        ]

    return factory


class TestDetectorFactory:
    def test_declarative_diamond_fleet_wide(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3),
            detector_factory=declarative_factory(diamond_spec(k=2, tau=600.0)),
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        recs = cluster.process_event(EdgeEvent(10.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in recs] == [(A2, C2)]
        assert recs[0].motif == "diamond"

    def test_factory_matches_hand_coded_cluster(self):
        from repro.gen import TwitterGraphConfig, generate_follow_graph, \
            StreamConfig, generate_event_stream

        snapshot = generate_follow_graph(
            TwitterGraphConfig(num_users=300, mean_followings=8.0, seed=6)
        )
        events = generate_event_stream(
            StreamConfig(num_users=300, duration=120.0, background_rate=4.0, seed=6)
        )
        hand = Cluster.build(snapshot, PARAMS, ClusterConfig(num_partitions=2))
        declarative = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2),
            detector_factory=declarative_factory(diamond_spec(k=2, tau=600.0)),
        )
        want = sorted(
            (r.created_at, r.recipient, r.candidate)
            for e in events
            for r in hand.process_event(e)  # the oracle, by name
        )
        got = sorted(
            (r.created_at, r.recipient, r.candidate)
            for r in declarative.process_stream(events)
        )
        assert got == want

    def test_co_hosted_programs_share_one_d_per_replica(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, replication_factor=2),
            detector_factory=declarative_factory(
                diamond_spec(k=2, tau=600.0),
                co_retweet_spec(k=2, tau=600.0),
            ),
        )
        tweet = 7
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        cluster.process_event(EdgeEvent(1.0, B1, tweet, ActionType.RETWEET))
        follow_recs = cluster.process_event(EdgeEvent(2.0, B2, C2))
        retweet_recs = cluster.process_event(
            EdgeEvent(3.0, B2, tweet, ActionType.RETWEET)
        )
        assert {r.motif for r in follow_recs} == {"diamond"}
        assert {r.motif for r in retweet_recs} == {"co-retweet"}
        # One D insert per replica per event despite two programs.
        replica = cluster.replica_sets[0].replicas[0]
        assert replica.engine.dynamic_index.inserted_total == 4

    def test_query_audience_requires_diamond_program(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=1),
            detector_factory=declarative_factory(diamond_spec(k=2, tau=600.0)),
        )
        with pytest.raises(TypeError, match="DiamondDetector"):
            cluster.replica_sets[0].replicas[0].query_audience(C2, now=0.0)

    def test_reload_snapshot_with_declarative_fleet(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2),
            detector_factory=declarative_factory(diamond_spec(k=2, tau=600.0)),
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        new_snapshot = GraphSnapshot.from_edges(
            FIGURE1_FOLLOWS + [(0, B2)], num_nodes=8
        )
        cluster.reload_snapshot(new_snapshot)
        recs = cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert {r.recipient for r in recs} == {0, A2}
