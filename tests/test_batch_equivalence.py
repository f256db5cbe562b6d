"""Batch/per-event equivalence: the batched hot path changes nothing.

The columnar ``process_batch`` path exists purely for throughput; this
module is the property-style guarantee that it is *semantics-preserving*:
random generated streams driven through ``MotifEngine.process`` one event
at a time and through ``process_batch`` at several batch sizes must yield
identical recommendation sequences (including provenance), identical
``DynamicEdgeIndex`` contents, and identical detector statistics.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import bursty_workload, drive_stream
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.broker import Broker
from repro.cluster.partition import PartitionServer
from repro.cluster.replica import ReplicaSet
from repro.cluster.rpc import SimulatedChannel
from repro.core import (
    DetectionParams,
    EdgeEvent,
    EventBatch,
    MotifEngine,
)
from repro.gen import (
    BurstSpec,
    StreamConfig,
    TwitterGraphConfig,
    generate_event_stream,
    generate_follow_graph,
)

BATCH_SIZES = [1, 2, 7, 64, 256]


def build_engine(snapshot, max_edges_per_target=None):
    return MotifEngine.from_snapshot(
        snapshot,
        DetectionParams(k=2, tau=300.0, max_trigger_sources=8),
        max_edges_per_target=max_edges_per_target,
        track_latency=False,
    )


def assert_equivalent(reference_engine, reference_recs, engine, recs):
    # Byte-identical recommendations, including the compare=False fields.
    assert recs == reference_recs
    assert [(r.via, r.action, r.motif) for r in recs] == [
        (r.via, r.action, r.motif) for r in reference_recs
    ]
    ref_d = reference_engine.dynamic_index
    got_d = engine.dynamic_index
    assert got_d._edges == ref_d._edges
    assert got_d.num_edges == ref_d.num_edges
    assert got_d.inserted_total == ref_d.inserted_total
    assert got_d.evicted_total == ref_d.evicted_total
    assert engine.detectors[0].stats == reference_engine.detectors[0].stats
    assert engine.stats.events_processed == reference_engine.stats.events_processed
    assert (
        engine.stats.recommendations_emitted
        == reference_engine.stats.recommendations_emitted
    )


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    burst_actors=st.integers(4, 40),
    cap=st.one_of(st.none(), st.integers(2, 16)),
)
def test_random_streams_equivalent(seed, burst_actors, cap):
    """Random generated streams: per-event and batched paths agree exactly.

    The small id space forces repeated targets inside batches (exercising
    the batch scan's per-target windows) and the optional tiny per-target cap
    exercises the insert_batch cap fallback.
    """
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=150, mean_followings=8.0, seed=seed)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=150,
            duration=400.0,
            background_rate=0.5,
            bursts=(
                BurstSpec(
                    target=149, start=50.0, duration=60.0, num_actors=burst_actors
                ),
            ),
            seed=seed,
        )
    )
    reference = build_engine(snapshot, max_edges_per_target=cap)
    reference_recs = [rec for e in events for rec in reference.process(e)]
    for batch_size in (1, 3, 17):
        engine = build_engine(snapshot, max_edges_per_target=cap)
        recs = engine.process_stream(events, batch_size=batch_size)
        assert_equivalent(reference, reference_recs, engine, recs)


def test_bursty_workload_equivalent_across_batch_sizes():
    """The benchmark workload agrees at every swept batch size."""
    snapshot, events = bursty_workload(
        num_users=2_000, duration=300.0, background_rate=6.0, burst_actors=50
    )
    reference = MotifEngine.from_snapshot(
        snapshot, DetectionParams(k=3, tau=600.0), track_latency=False
    )
    # The oracle is called by name: process_stream batches at every size.
    reference_recs = [rec for e in events for rec in reference.process(e)]
    for batch_size in BATCH_SIZES:
        engine = MotifEngine.from_snapshot(
            snapshot, DetectionParams(k=3, tau=600.0), track_latency=False
        )
        recs = drive_stream(engine, events, batch_size=batch_size)
        assert_equivalent(reference, reference_recs, engine, recs)
    assert reference_recs, "workload never triggered; the test proves nothing"


def test_equal_timestamp_ties_are_exact():
    """Events landing on identical timestamps still match per-event output.

    Ties are where a naive whole-batch insert would diverge (a later
    same-time edge would leak into an earlier event's freshness window);
    the batch scan's per-event windows must prevent that.
    """
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=60, mean_followings=6.0, seed=3)
    )
    events = [
        EdgeEvent(10.0, actor, 59 if actor % 2 else 58) for actor in range(40)
    ] + [EdgeEvent(10.0, 40 + i, 59) for i in range(10)]
    reference = build_engine(snapshot)
    reference_recs = [rec for e in events for rec in reference.process(e)]
    for batch_size in (5, 50):
        engine = build_engine(snapshot)
        recs = engine.process_stream(events, batch_size=batch_size)
        assert_equivalent(reference, reference_recs, engine, recs)


def test_out_of_order_timestamps_equivalent():
    """Mildly reordered streams (queue jitter) stay exact."""
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=100, mean_followings=8.0, seed=9)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=100,
            duration=200.0,
            background_rate=2.0,
            bursts=(BurstSpec(target=99, start=20.0, duration=40.0, num_actors=25),),
            seed=9,
        )
    )
    # Swap neighbours to simulate modest queue reordering.
    for i in range(0, len(events) - 1, 2):
        events[i], events[i + 1] = events[i + 1], events[i]
    reference = build_engine(snapshot, max_edges_per_target=4)
    reference_recs = [rec for e in events for rec in reference.process(e)]
    engine = build_engine(snapshot, max_edges_per_target=4)
    recs = engine.process_stream(events, batch_size=16)
    assert_equivalent(reference, reference_recs, engine, recs)


def test_cluster_batched_equivalent():
    """The whole cluster stack (broker -> replicas -> partitions) agrees."""
    from repro.bench.workloads import bench_cluster

    snapshot, events = bursty_workload(
        num_users=1_500, duration=250.0, background_rate=5.0, burst_actors=40
    )
    reference = bench_cluster(snapshot, num_partitions=3, replication_factor=2)
    reference_recs = [
        rec for e in events for rec in reference.process_event(e)
    ]
    batched = bench_cluster(snapshot, num_partitions=3, replication_factor=2)
    recs = drive_stream(batched, events, batch_size=32)
    assert recs == reference_recs
    assert [(r.via, r.action) for r in recs] == [
        (r.via, r.action) for r in reference_recs
    ]
    # Batched RPC accounting: one fan-out call per partition per batch.
    assert (
        batched.broker.stats.fan_out_calls
        < reference.broker.stats.fan_out_calls / 10
    )
    assert batched.broker.stats.events_routed == reference.broker.stats.events_routed


HUB_PARAMS = DetectionParams(k=2, tau=600.0)


@functools.cache
def hub_burst_stream():
    """Bursts on a few hub targets: targets repeat within most batches —
    where a partition reading a shared D after another partition inserted
    the whole batch would go wrong."""
    return bursty_workload(
        num_users=800,
        duration=200.0,
        background_rate=4.0,
        num_bursts=3,
        burst_actors=60,
        seed=5,
    )


def cluster_multiset(recommendations):
    return sorted(
        (r.created_at, r.recipient, r.candidate, r.via) for r in recommendations
    )


def flush_clock_batches(events, batch_size):
    """``(batch, now)`` pairs with the flush clock a streaming consumer
    passes: the batch's last creation time.  Under that clock a later
    event's edge is inside an earlier event's freshness window, so a scan
    read after the whole batch was inserted would see it."""
    for i in range(0, len(events), batch_size):
        chunk = events[i : i + batch_size]
        yield chunk, chunk[-1].created_at


def drive_flushes(cluster, events, batch_size):
    out = []
    for chunk, now in flush_clock_batches(events, batch_size):
        replies, _latency = cluster.broker.process_batch(
            EventBatch.from_events(chunk), now
        )
        for reply in replies:
            out.extend(reply)
    return out


@functools.cache
def boxed_oracle(partitions, replicas, batch_size):
    """The boxed per-event lane (``Broker.process_event``), by name, at
    the same flush clocks: its candidate multiset and its per-replica
    detector statistics."""
    snapshot, events = hub_burst_stream()
    cluster = Cluster.build(
        snapshot,
        HUB_PARAMS,
        ClusterConfig(num_partitions=partitions, replication_factor=replicas),
    )
    candidates = cluster_multiset(
        r
        for chunk, now in flush_clock_batches(events, batch_size)
        for e in chunk
        for r in cluster.broker.process_event(e, now)[0]
    )
    return candidates, diamond_stats(cluster)


def private_d_cluster(snapshot, partitions, replicas):
    """The pre-sharing layout, assembled by hand: every replica creates its
    own D (a :class:`PartitionServer` given none), one per replica."""
    shared = Cluster.build(
        snapshot,
        HUB_PARAMS,
        ClusterConfig(num_partitions=partitions, replication_factor=replicas),
    )
    replica_sets = [
        ReplicaSet(
            replica_set.partition_id,
            [
                PartitionServer(
                    replica_set.partition_id, r, replica.engine.static_index, HUB_PARAMS
                )
                for r, replica in enumerate(replica_set.replicas)
            ],
            [SimulatedChannel(f"p{replica_set.partition_id}/r{r}") for r in range(replicas)],
        )
        for replica_set in shared.replica_sets
    ]
    return Cluster(Broker(replica_sets), shared.partitioner, HUB_PARAMS)


def distinct_ds(cluster):
    return list(
        {
            id(replica.engine.dynamic_index): replica.engine.dynamic_index
            for replica_set in cluster.replica_sets
            for replica in replica_set.replicas
        }.values()
    )


def diamond_stats(cluster):
    return [
        [replica.engine.detectors[0].stats for replica in replica_set.replicas]
        for replica_set in cluster.replica_sets
    ]


def test_hub_burst_stream_repeats_targets_within_batches():
    """The grid below is only a test of the shared scan if batches repeat
    targets: each repeat must see its batch's earlier edges to the target."""
    _snapshot, events = hub_burst_stream()
    batches = [events[i : i + 256] for i in range(0, len(events), 256)]
    repeats = sum(
        len(batch) - len({event.target for event in batch}) for batch in batches
    )
    assert repeats > 4 * len(batches)


@pytest.mark.parametrize("batch_size", [1, 16, 256])
@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("partitions", [1, 2, 3])
def test_shared_d_cluster_matches_oracle_and_private_d(
    partitions, replicas, batch_size
):
    """All P x R in-process engines share one D, scanned and inserted once
    per batch: same candidates as the boxed oracle and as a private-D
    deployment, same per-partition detector statistics (all five
    counters, against the per-event oracle too: the batch-level audience
    phase does the trigger and empty-list counting), same D."""
    snapshot, events = hub_burst_stream()
    config = ClusterConfig(
        num_partitions=partitions, replication_factor=replicas
    )
    shared = Cluster.build(snapshot, HUB_PARAMS, config)
    private = private_d_cluster(snapshot, partitions, replicas)
    got = drive_flushes(shared, events, batch_size)
    want = drive_flushes(private, events, batch_size)
    assert got == want
    oracle_candidates, oracle_stats = boxed_oracle(
        partitions, replicas, batch_size
    )
    assert cluster_multiset(got) == oracle_candidates
    assert diamond_stats(shared) == diamond_stats(private) == oracle_stats
    (shared_d,) = distinct_ds(shared)
    private_ds = distinct_ds(private)
    assert len(private_ds) == partitions * replicas
    for private_d in private_ds:
        assert shared_d._edges == private_d._edges
        assert shared_d.inserted_total == private_d.inserted_total
        assert shared_d.evicted_total == private_d.evicted_total
    assert got, "workload never triggered; the test proves nothing"


def test_resync_refuses_replicas_with_private_ds():
    """Resync copies nothing, so a set whose replicas hold different D
    objects must not rejoin one: the down replica's D missed the batches."""
    snapshot, events = hub_burst_stream()
    replica_set = private_d_cluster(snapshot, 1, 2).replica_sets[0]
    replica_set.mark_down(1)
    replica_set.ingest_batch(EventBatch.from_events(events[:64]))
    assert replica_set.missed_events == [0, 64]
    with pytest.raises(ValueError, match="different D"):
        replica_set.resync(1)
    assert not replica_set.channels[1].available


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 5),  # actor
            st.integers(0, 3),  # target (tiny space forces repeats)
            st.floats(0.0, 100.0, allow_nan=False),  # timestamp
        ),
        max_size=40,
    ),
    cap=st.one_of(st.none(), st.integers(1, 4)),
    jitter=st.floats(0.0, 30.0),
)
def test_insert_batch_matches_sequential_inserts(data, cap, jitter):
    """DynamicEdgeIndex.insert_batch == insert()-per-event, on any batch.

    Covers repeated targets (grouping), tiny caps (the mid-batch overflow
    fallback), and timestamp jitter (the retention-skew fallback) — the
    grouped bulk path and both exact fallbacks must all land on identical
    index contents and counters.
    """
    from repro.graph import DynamicEdgeIndex

    events = [
        EdgeEvent(t + (jitter if i % 3 == 0 else 0.0), a, c)
        for i, (a, c, t) in enumerate(data)
    ]
    reference = DynamicEdgeIndex(retention=25.0, max_edges_per_target=cap)
    for e in events:
        reference.insert(e.actor, e.target, e.created_at, action=e.action)
    batched = DynamicEdgeIndex(retention=25.0, max_edges_per_target=cap)
    batched.insert_batch(EventBatch.from_events(events))
    assert batched._edges == reference._edges
    assert batched.num_edges == reference.num_edges
    assert batched.inserted_total == reference.inserted_total
    assert batched.evicted_total == reference.evicted_total


def test_fresh_sources_multi_matches_single_queries():
    """The grouped freshness query agrees with per-target fresh_sources."""
    from repro.graph import DynamicEdgeIndex

    index = DynamicEdgeIndex(retention=50.0)
    for i in range(30):
        index.insert(i % 7, i % 5, float(i), action=None)
    targets = [0, 1, 2, 3, 4, 99]
    nows = [29.0, 29.0, 40.0, 12.0, 29.0, 29.0]
    grouped = index.fresh_sources_multi(targets, nows, tau=20.0)
    for c, now, fresh in zip(targets, nows, grouped):
        assert fresh == index.fresh_sources(c, now=now, tau=20.0)
    # The raw representation carries the same edges in the same order.
    raw = index.fresh_sources_multi(targets, nows, tau=20.0, raw=True)
    for fresh, raw_fresh in zip(grouped, raw):
        assert [(e.timestamp, e.source, e.action) for e in fresh] == raw_fresh
    # min_count hides targets with fewer stored entries than the threshold,
    # never ones with more.
    thresholded = index.fresh_sources_multi(targets, nows, tau=20.0, min_count=3)
    for fresh, limited in zip(grouped, thresholded):
        if limited:
            assert limited == fresh
        else:
            assert len(fresh) < 3 or limited == fresh


def test_process_batch_accepts_explicit_now():
    """A queue consumer's arrival clock flows through the batched path."""
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=80, mean_followings=8.0, seed=4)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=80,
            duration=100.0,
            background_rate=1.0,
            bursts=(BurstSpec(target=79, start=10.0, duration=20.0, num_actors=20),),
            seed=4,
        )
    )
    now = 120.0
    reference = build_engine(snapshot)
    reference_recs = [rec for e in events for rec in reference.process(e, now=now)]
    engine = build_engine(snapshot)
    recs = engine.process_batch(EventBatch.from_events(events), now=now)
    assert recs == reference_recs
