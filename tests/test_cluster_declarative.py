"""Compiled motif programs deployed fleet-wide via detector factories.

A factory deployment shares one D per address space like the default
diamond fleet, so co-hosted programs share its inserts and run scans; these
tests hold it to the per-event loop on every transport.
"""

import dataclasses

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import ActionType, DetectionParams, EdgeEvent
from repro.core.batch import EventBatch
from repro.core.recommendation import RecommendationBatch
from repro.graph import GraphSnapshot
from repro.motif import build_detector, co_retweet_spec, compile_motif, diamond_spec

from tests.conftest import A2, B1, B2, C2, FIGURE1_FOLLOWS
from tests.test_motif_executor import (
    BATCH_SIZES,
    TAU,
    catalog_kwargs,
    mixed_action_follows,
    random_mixed_action_events,
)

PARAMS = DetectionParams(k=2, tau=600.0)

def compiled_factory(*specs):
    def factory(static_shard, dynamic_index):
        return [
            compile_motif(spec, static_shard, dynamic_index, inserts_edges=False)
            for spec in specs
        ]

    return factory


def catalog_factory(*names):
    def factory(static_shard, dynamic_index):
        return [
            build_detector(
                name, static_shard, dynamic_index, inserts_edges=False,
                **catalog_kwargs(name, 2),
            )
            for name in names
        ]

    return factory


def per_event_oracle(factory, events, batch_size, partitions=2):
    """The boxed per-event loop on an in-process cluster, under the flush
    clock, as ``(event index, candidates)`` for triggering events."""
    cluster = Cluster.build(
        GraphSnapshot.from_edges(mixed_action_follows(), num_nodes=48),
        DetectionParams(k=2, tau=TAU),
        ClusterConfig(num_partitions=partitions),
        detector_factory=factory,
    )
    out = []
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        for i, event in enumerate(chunk, start):
            recs = cluster.broker.process_event(event, chunk[-1].created_at)[0]
            if recs:
                out.append((i, recs))
    return out


def batched(cluster, events, batch_size):
    """``Broker.process_batch`` per flush, re-attributed by ``by_event``."""
    out = []
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        replies, _latency = cluster.broker.process_batch(
            EventBatch.from_events(chunk), chunk[-1].created_at
        )
        out += [
            (start + i, list(recs))
            for i, recs in RecommendationBatch.by_event(replies)
        ]
    return out


class TestDetectorFactory:
    def test_compiled_diamond_fleet_wide(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3),
            detector_factory=compiled_factory(diamond_spec(k=2, tau=600.0)),
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
        compiled = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2),
            detector_factory=compiled_factory(diamond_spec(k=2, tau=600.0)),
        )
        want = sorted(
            (r.created_at, r.recipient, r.candidate)
            for e in events
            for r in hand.process_event(e)  # the oracle, by name
        )
        got = sorted(
            (r.created_at, r.recipient, r.candidate)
            for r in compiled.process_stream(events)
        )
        assert got == want

    def test_co_hosted_programs_share_one_d(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, replication_factor=2),
            detector_factory=compiled_factory(
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
        # One D for all four replicas, one insert per event.
        (dynamic_index,) = {
            id(replica.engine.dynamic_index): replica.engine.dynamic_index
            for replica_set in cluster.replica_sets
            for replica in replica_set.replicas
        }.values()
        assert dynamic_index.inserted_total == 4

    def test_query_audience_uses_the_program_action_filter(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=1),
            detector_factory=compiled_factory(co_retweet_spec(k=2, tau=600.0)),
        )
        tweet = 7
        for t, b in ((0.0, B1), (1.0, B2)):
            cluster.process_event(EdgeEvent(t, b, C2))
            cluster.process_event(EdgeEvent(t, b, tweet, ActionType.RETWEET))
        replica = cluster.replica_sets[0].replicas[0]
        assert replica.query_audience(tweet, now=2.0) == [A2]
        # Two fresh follows of C2 are no co-retweet witnesses.
        assert replica.query_audience(C2, now=2.0) == []

    def test_reload_snapshot_with_compiled_fleet(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2),
            detector_factory=compiled_factory(diamond_spec(k=2, tau=600.0)),
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        new_snapshot = GraphSnapshot.from_edges(
            FIGURE1_FOLLOWS + [(0, B2)], num_nodes=8
        )
        cluster.reload_snapshot(new_snapshot)
        recs = cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert {r.recipient for r in recs} == {0, A2}


@pytest.mark.parametrize(
    "programs", [("diamond", "co-retweet"), ("wedge", "favorite-burst")]
)
@pytest.mark.parametrize(
    "transport", ["inprocess", "shm"]
)
def test_co_hosted_catalog_motifs_match_the_per_event_loop(transport, programs):
    """Two co-hosted catalog programs on a P = 2 factory deployment, batched
    at 1 / 7 / 64 on a mixed-action stream, answer every event exactly as
    the per-event loop does — on every transport."""
    events = random_mixed_action_events(240, seed=3)
    factory = catalog_factory(*programs)
    for batch_size in BATCH_SIZES:
        want = per_event_oracle(factory, events, batch_size)
        assert {rec.motif for _i, recs in want for rec in recs} == set(programs)
        with Cluster.build(
            GraphSnapshot.from_edges(mixed_action_follows(), num_nodes=48),
            DetectionParams(k=2, tau=TAU),
            ClusterConfig(num_partitions=2, transport=transport),
            detector_factory=factory,
        ) as cluster:
            assert batched(cluster, events, batch_size) == want


@pytest.mark.parametrize("twin", ["same spec", "no forbid edge"])
def test_programs_with_one_scan_key_share_a_kept_scan(twin):
    """Two programs with the same ``(tau, k, action)`` on each engine of a
    shared D: every engine and program must read each run's scan as it was
    when the run went in, not a rescan after the batch's later runs (a hub
    that repeats across runs would gain witnesses)."""
    spec = diamond_spec(k=2, tau=TAU)
    other = spec if twin == "same spec" else dataclasses.replace(
        spec, name="open-diamond", forbid=()
    )
    factory = compiled_factory(spec, other)
    events = random_mixed_action_events(240, seed=3)
    want = per_event_oracle(factory, events, 64)
    assert want
    cluster = Cluster.build(
        GraphSnapshot.from_edges(mixed_action_follows(), num_nodes=48),
        DetectionParams(k=2, tau=TAU),
        ClusterConfig(num_partitions=2),
        detector_factory=factory,
    )
    assert batched(cluster, events, 64) == want
