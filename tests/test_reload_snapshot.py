"""Live snapshot hot-reload and D checkpoint control messages, fleet-wide.

``Cluster.reload_snapshot`` historically only worked on the in-process
transport (worker-hosted partitions silently had no path for the new S
shards).  It now routes per-partition ``reload_static`` control messages
over whatever transport the fleet runs on, so these tests pin the paper's
"loaded into the system periodically" operation on a *live* worker fleet:
after an in-place reload, the running deployment must serve exactly what
a fresh deployment built from the new snapshot (with the same D) serves.

``checkpoint``/``load_dynamic`` — the durability tier's D capture and
restore — get the same treatment: a checkpoint taken over any transport
restores bitwise into any other.
"""


import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams, EdgeEvent
from repro.gen import TwitterGraphConfig, generate_follow_graph

PARAMS = DetectionParams(k=2, tau=600.0)

TRANSPORTS = ["inprocess", "shm"]


def _snapshots():
    old = generate_follow_graph(
        TwitterGraphConfig(num_users=220, mean_followings=12.0, seed=11)
    )
    new = generate_follow_graph(
        TwitterGraphConfig(num_users=220, mean_followings=12.0, seed=29)
    )
    return old, new


def _stream(seed, n, start=0.0):
    rng = np.random.default_rng(seed)
    return [
        EdgeEvent(
            start + 0.25 * i,
            int(rng.integers(0, 180)),
            int(rng.integers(150, 220)),
        )
        for i in range(n)
    ]


def _triples(recommendations):
    return sorted(
        (rec.recipient, rec.candidate, rec.created_at)
        for rec in recommendations
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_live_fleet_serves_new_snapshot_after_inplace_reload(transport):
    """Hot reload on a live (possibly worker-hosted) fleet ≡ fresh build."""
    old_snap, new_snap = _snapshots()
    prefix = _stream(seed=1, n=120)
    suffix = _stream(seed=2, n=120, start=40.0)

    live = Cluster.build(
        old_snap,
        PARAMS,
        ClusterConfig(num_partitions=3, transport=transport),
    )
    try:
        # A live fleet is fed batches (one-event ones at the default size);
        # the boxed per-event oracle below is in-process only.
        live.process_stream(prefix)
        checkpoint = live.checkpoint_dynamic()
        assert checkpoint is not None
        # The operation under test: swap S in place, no restart, D kept.
        assert live.reload_snapshot(new_snap) == 3
        live_recs = [
            triple
            for event in suffix
            for triple in _triples(live.process_stream([event]))
        ]
    finally:
        live.close()

    reference = Cluster.build(
        new_snap, PARAMS, ClusterConfig(num_partitions=3)
    )
    restored_edges = reference.load_dynamic(checkpoint)
    assert restored_edges == len(checkpoint["targets"])
    ref_recs = [
        triple
        for event in suffix
        for triple in _triples(reference.process_event(event))
    ]
    assert live_recs == ref_recs
    assert live_recs  # the new graph must actually produce detections


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_checkpoint_restores_bitwise_across_transports(transport):
    """D checkpoint arrays round-trip exactly through load_dynamic."""
    old_snap, _ = _snapshots()
    source = Cluster.build(
        old_snap,
        PARAMS,
        ClusterConfig(num_partitions=2, transport=transport),
    )
    try:
        source.process_stream(_stream(seed=7, n=150))
        checkpoint = source.checkpoint_dynamic()
    finally:
        source.close()
    assert checkpoint is not None and len(checkpoint["targets"]) > 0

    target = Cluster.build(old_snap, PARAMS, ClusterConfig(num_partitions=2))
    target.load_dynamic(checkpoint)
    again = target.checkpoint_dynamic()
    assert set(again) == set(checkpoint)
    for name in checkpoint:
        np.testing.assert_array_equal(again[name], checkpoint[name])


def test_checkpoint_reaches_every_replica():
    """load_dynamic restores all replicas, not just the queried one."""
    old_snap, _ = _snapshots()
    cluster = Cluster.build(
        old_snap,
        PARAMS,
        ClusterConfig(num_partitions=2, replication_factor=2),
    )
    for event in _stream(seed=5, n=60):
        cluster.process_event(event)
    checkpoint = cluster.checkpoint_dynamic()

    restored = Cluster.build(
        old_snap,
        PARAMS,
        ClusterConfig(num_partitions=2, replication_factor=2),
    )
    restored.load_dynamic(checkpoint)
    for replica_set in restored.replica_sets:
        for replica in replica_set.replicas:
            index = replica.engine.dynamic_index
            assert index.num_edges == len(checkpoint["targets"])


@pytest.mark.parametrize(
    "replicas, transport", [(1, "inprocess"), (2, "inprocess"), (1, "shm")]
)
def test_load_dynamic_restores_each_d_once(replicas, transport):
    """Restoring re-inserts edges, so a D shared by co-hosted partitions
    and replicas is restored once: the count comes back exact, neither
    doubled nor — under a per-target cap — evicting real edges."""
    old_snap, _ = _snapshots()
    config = ClusterConfig(
        num_partitions=2,
        replication_factor=replicas,
        max_edges_per_target=3,
        transport=transport,
    )
    with Cluster.build(old_snap, PARAMS, config) as source:
        source.process_stream(_stream(seed=3, n=200), batch_size=16)
        checkpoint = source.checkpoint_dynamic()
    edges = len(checkpoint["targets"])
    with Cluster.build(old_snap, PARAMS, config) as restored:
        assert restored.load_dynamic(checkpoint) == edges
        for partition in restored.transport.health():
            for replica in partition.replicas:
                assert replica.dynamic_edges == edges
        again = restored.checkpoint_dynamic()
    for name in checkpoint:
        np.testing.assert_array_equal(again[name], checkpoint[name])


@pytest.mark.parametrize("limit", [None, 4])
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_reload_installs_the_shards_a_fresh_build_loads(transport, limit):
    """After ``reload_snapshot`` every partition holds exactly the S shard
    a fresh ``Cluster.build`` of the new snapshot loads (array-equal), on
    the fleet as well as in-process."""
    old_snap, new_snap = _snapshots()
    fresh = Cluster.build(
        new_snap, PARAMS, ClusterConfig(num_partitions=3, influencer_limit=limit)
    )
    expected = [rs.replicas[0].engine.static_index for rs in fresh.replica_sets]
    sent = {}
    with Cluster.build(
        old_snap, PARAMS, ClusterConfig(num_partitions=3, transport=transport)
    ) as live:
        reload_static = live.transport.reload_static

        def recording_reload(shards):
            sent.update(shards)
            return reload_static(shards)

        live.transport.reload_static = recording_reload
        assert live.reload_snapshot(new_snap, influencer_limit=limit) == 3
        static_bytes = [
            sum(replica.static_memory_bytes for replica in partition.replicas)
            for partition in live.transport.health()
        ]
        if transport == "inprocess":
            installed = [rs.replicas[0].engine.static_index for rs in live.replica_sets]
            assert installed == [sent[p] for p in range(3)]
    for p, want in enumerate(expected):
        got = sent[p]
        np.testing.assert_array_equal(got._keys(), want._keys())
        np.testing.assert_array_equal(got._offsets, want._offsets)
        np.testing.assert_array_equal(got._arena, want._arena)
        assert static_bytes[p] == want.memory_bytes()
