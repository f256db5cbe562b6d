"""Storage-layout equivalence: representation changes nothing observable.

S (one int64 arena + offsets) and D (deques that promote to circular numpy
columns once a target is hot) each have exactly one layout; this module is
the property-style guarantee that the layouts are *only* layouts.  On
randomized follow graphs and event streams:

* S answers every query like a plain-Python model (sorted, de-duplicated
  followers per B after the influencer cap), including across
  ``append_follow_edges`` / ``compact``;
* a D that promotes almost immediately (its ``promote_threshold``
  attribute set tiny) stays bit-identical — queries, contents, eviction
  counters, checkpoint arrays — to a D that never promotes (the attribute
  set to ``NEVER_PROMOTE``, i.e. deques only), through promote/demote
  churn;
* the engine emits the same recommendations per-event, batched, and over a
  never-promoting D.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HashPartitioner
from repro.core import ActionType, DetectionParams, MotifEngine
from repro.core.batch import EventBatch
from repro.core.checkpoint import dynamic_index_arrays, restore_dynamic_arrays
from repro.gen import (
    BurstSpec,
    StreamConfig,
    TwitterGraphConfig,
    generate_event_stream,
    generate_follow_graph,
)
from repro.graph import (
    DynamicEdgeIndex,
    GraphSnapshot,
    StaticFollowerIndex,
    build_follower_snapshot,
)
from repro.graph.dynamic_index import DEFAULT_PROMOTE_THRESHOLD

#: A promotion threshold no entry count reaches: every target stays a deque
#: of boxed tuples — the reference layout the rings are compared against.
NEVER_PROMOTE = 2**62


def d_index(retention, threshold, **kwargs):
    """A D whose layout switch is forced to *threshold* (set before the
    first insert, as the attribute is D's own constant otherwise)."""
    index = DynamicEdgeIndex(retention, **kwargs)
    index.promote_threshold = threshold
    return index

follow_edges = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)),
    max_size=120,
)

event_rows = st.lists(
    st.tuples(
        st.integers(0, 8),  # actor
        st.integers(0, 4),  # target (tiny space forces hot targets)
        st.floats(0.0, 100.0, allow_nan=False),  # timestamp offset
        st.sampled_from([None, ActionType.FOLLOW, ActionType.RETWEET]),
    ),
    max_size=80,
)


# ----------------------------------------------------------------------
# S: the arena vs a plain-Python model
# ----------------------------------------------------------------------


def model_followers(edges, limit=None, owns=None, weight=None):
    """The S oracle: ``B -> sorted distinct A's`` over the A's *owns*
    accepts (all when None), after the per-A influencer cap — heaviest
    *weight(a, b)* first, lowest B on ties (uniform weights when None, so
    the lowest B ids survive truncation)."""
    followings = {}
    for a, b in edges:
        if owns is None or owns(a):
            followings.setdefault(a, set()).add(b)
    inverse = {}
    for a, b_set in followings.items():
        key = None if weight is None else (lambda b, a=a: (-weight(a, b), b))
        for b in sorted(b_set, key=key)[:limit]:
            inverse.setdefault(b, []).append(a)
    return {b: sorted(a_list) for b, a_list in inverse.items()}


def assert_index_matches_model(index, model):
    assert index.num_edges == sum(len(a_list) for a_list in model.values())
    assert index.num_targets == len(model)
    assert sorted(index.sources()) == sorted(model)
    assert index.degree_histogram() == Counter(map(len, model.values()))
    for b in range(32):
        expected = model.get(b, [])
        assert index.followers_of(b).tolist() == expected
        assert (b in index) == (b in model)
        array = index.follower_array(b)
        assert (array is None) == (not expected)
        if expected:
            assert array.tolist() == expected
        for a in range(32):
            assert index.has_edge(a, b) == (a in expected)


@settings(max_examples=60, deadline=None)
@given(edges=follow_edges, limit=st.one_of(st.none(), st.integers(1, 4)))
def test_s_backends_agree_on_random_graphs(edges, limit):
    """Identical queries and accounting from the arena and the model."""
    index = StaticFollowerIndex.from_follow_edges(edges, influencer_limit=limit)
    assert_index_matches_model(index, model_followers(edges, limit))


def _shard_graphs(weighted):
    """``(name, edges, num_nodes, weights)`` cases for the bulk-load grid."""
    rng = np.random.default_rng(23)
    src = rng.integers(0, 60, 400)
    dst = np.minimum(rng.zipf(1.6, 400), 59)  # skewed in-degree, like follows
    random_edges = list(zip(src.tolist(), dst.tolist()))  # with repeats
    cases = [
        ("empty", [], 5),
        ("isolated", [(1, 2), (1, 3), (4, 2)], 9),  # 0, 5..8 follow nobody
        ("duplicates", [(2, 1)] * 3 + [(0, 1), (2, 3), (0, 1), (2, 3)], 4),
        ("random", random_edges, 60),
    ]
    for name, edges, num_nodes in cases:
        weights = {}
        if weighted:
            # A few ties, a few unscored edges, and a score for a non-edge.
            for i, edge in enumerate(sorted(set(edges))):
                if i % 5:
                    weights[edge] = float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            weights[(num_nodes, 0)] = 9.0  # not a user
            if (0, 0) not in edges:
                weights[(0, 0)] = 9.0  # a user, but not an edge
        yield name, edges, num_nodes, weights


@pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
@pytest.mark.parametrize("limit", [None, 1, 4])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 20])
def test_bulk_load_shards_match_oracle(num_shards, limit, weighted):
    """Every shard of the one-pass bulk load is array-equal to the oracle
    restricted to the A's its partition owns."""
    partitioner = HashPartitioner(num_shards)
    for name, edges, num_nodes, weights in _shard_graphs(weighted):
        snapshot = GraphSnapshot.from_edges(edges, num_nodes, weights)
        owners = partitioner.owners(np.arange(num_nodes))
        shards = StaticFollowerIndex.load_shards(snapshot, owners, num_shards, limit)
        assert len(shards) == num_shards
        weight = snapshot.weight_of if weights else None
        for p, shard in enumerate(shards):
            model = model_followers(
                edges, limit, lambda a, p=p: partitioner.partition_of(a) == p, weight
            )
            assert sorted(shard.sources()) == sorted(model), (name, p)
            assert shard.num_edges == sum(map(len, model.values())), (name, p)
            for b in range(num_nodes):
                followers = shard.followers_of(b)
                assert followers.dtype == np.int64
                np.testing.assert_array_equal(
                    followers, np.array(model.get(b, []), dtype=np.int64)
                )


@pytest.mark.parametrize("limit", [None, 1, 4])
def test_from_follow_edges_allocates_nothing_per_id(limit):
    """Ids at the 2**32 - 1 edge load through the same kernel without any
    array sized by the largest id; the predicate is asked once per A."""
    top = 2**32 - 1
    edges = [(top, 5), (7, top), (top - 1, top), (top, top - 1), (7, 5),
             (top - 1, 5), (top, 6), (top, 5), (3, top)]
    weights = {edge: float(i % 3) for i, edge in enumerate(edges)}
    asked = Counter()

    def owns(a):
        asked[a] += 1
        return a != 3

    tracemalloc.start()
    try:
        index = StaticFollowerIndex.from_follow_edges(
            edges, limit, lambda a, b: weights[(a, b)], include_source=owns
        )
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert set(asked.values()) == {1}
    model = model_followers(edges, limit, owns, lambda a, b: weights[(a, b)])
    assert sorted(index.sources()) == sorted(model)
    for b, followers in model.items():
        np.testing.assert_array_equal(index.followers_of(b), followers)


@settings(max_examples=40, deadline=None)
@given(base=follow_edges, appended=follow_edges)
def test_csr_append_matches_bulk_build(base, appended):
    """Append-and-compact lands on the same index as one bulk load.

    Appended edges must be queryable immediately (overlay), after an
    explicit compact, and count correctly against dedup in both the arena
    and the overlay.
    """
    incremental = StaticFollowerIndex.from_follow_edges(base)
    base_edges = incremental.num_edges
    added = incremental.append_follow_edges(appended)
    model = model_followers(list(base) + list(appended))
    assert added == incremental.num_edges - base_edges
    assert_index_matches_model(incremental, model)  # served from the overlay
    incremental.compact()
    assert incremental.pending_edges == 0
    assert_index_matches_model(incremental, model)  # and from the arena


def test_csr_auto_compacts_at_threshold():
    index = StaticFollowerIndex.from_follow_edges([(0, 1)])
    index.compact_threshold = 4
    index.append_follow_edges([(a, 1) for a in range(1, 4)])
    assert index.pending_edges == 3
    index.append_follow_edges([(9, 2)])
    assert index.pending_edges == 0  # threshold reached -> folded into arena
    assert list(index.followers_of(1)) == [0, 1, 2, 3]
    assert list(index.followers_of(2)) == [9]


# ----------------------------------------------------------------------
# D: promoting vs never-promoting
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    rows=event_rows,
    cap=st.one_of(st.none(), st.integers(1, 6)),
    threshold=st.integers(1, 12),
    retention=st.sampled_from([5.0, 30.0, 200.0]),
)
def test_d_backends_agree_on_random_streams(rows, cap, threshold, retention):
    """Rings and deques stay bit-identical through promote/demote churn.

    A tiny ``promote_threshold`` forces promotion early; interleaved
    ``prune_expired`` sweeps force demotion (and re-promotion on later
    inserts); tiny caps exercise eviction inside both representations.
    Every other group of five rows lands through ``insert_batch`` instead
    of per-event ``insert``, so the grouped bulk paths see the same churn.
    """
    reference = d_index(retention, NEVER_PROMOTE, max_edges_per_target=cap)
    ring = d_index(retention, threshold, max_edges_per_target=cap)
    clock = 0.0
    pending = []
    for i, (actor, target, offset, action) in enumerate(rows):
        clock += offset / 10.0
        if (i // 5) % 2:
            pending.append((clock, actor, target, action or ActionType.FOLLOW))
            if i % 5 == 4 or i == len(rows) - 1:
                batch = EventBatch(*zip(*pending))
                for index in (reference, ring):
                    index.insert_batch(batch)
                pending = []
        else:
            for index in (reference, ring):
                index.insert(actor, target, clock, action=action)
        if i % 7 == 6:
            assert reference.prune_expired(clock) == ring.prune_expired(clock)
        if i % 3 == 2:
            tau = min(retention, 10.0)
            act = action if i % 2 else None
            for c in range(5):
                assert ring.fresh_sources(c, now=clock, tau=tau, action=act) == (
                    reference.fresh_sources(c, now=clock, tau=tau, action=act)
                )
            targets = list(range(5))
            nows = [clock] * 5
            for raw in (False, True):
                got = ring.fresh_sources_multi(
                    targets, nows, tau=tau, action=act, min_count=2, raw=raw
                )
                expected = reference.fresh_sources_multi(
                    targets, nows, tau=tau, action=act, min_count=2, raw=raw
                )
                # FreshColumns compares equal to the deque scan's tuples.
                assert list(map(list, got)) == list(map(list, expected))
    assert ring.num_edges == reference.num_edges
    assert ring.inserted_total == reference.inserted_total
    assert ring.evicted_total == reference.evicted_total
    assert ring.num_targets == reference.num_targets
    assert reference.num_hot_targets == 0
    for c in reference.targets():
        assert ring.entries(c) == reference.entries(c)


def test_ring_promotes_and_demotes_at_boundaries():
    index = d_index(100.0, 4)
    for i in range(3):
        index.insert(i, 7, float(i))
    assert index.num_hot_targets == 0
    index.insert(3, 7, 3.0)  # crosses the threshold
    assert index.num_hot_targets == 1
    # Pruning below half the threshold demotes back to the deque.
    index.prune_expired(102.5)  # cutoff 2.5 -> one entry survives
    assert index.num_hot_targets == 0
    assert [e[1] for e in index.entries(7)] == [3]
    # And the survivor re-promotes once it heats back up.
    for i in range(10, 14):
        index.insert(i, 7, 50.0 + i)
    assert index.num_hot_targets == 1
    assert index.num_edges == 5


# ----------------------------------------------------------------------
# Snapshot / checkpoint round-trips
# ----------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(rows=event_rows, threshold=st.integers(1, 8))
def test_checkpoint_roundtrip_preserves_ring_backend(rows, threshold):
    """A ring-backed index's contents survive the round trip exactly; the
    arrays carry no layout, so the restored D picks its own."""
    index = d_index(1000.0, threshold, max_edges_per_target=8)
    clock = 0.0
    for actor, target, offset, action in rows:
        clock += offset / 10.0
        index.insert(actor, target, clock, action=action)
    arrays = dynamic_index_arrays(index)
    assert set(arrays) == {"targets", "timestamps", "sources", "actions"}
    restored = DynamicEdgeIndex(1000.0, max_edges_per_target=8)
    restore_dynamic_arrays(restored, arrays)
    assert restored.promote_threshold == DEFAULT_PROMOTE_THRESHOLD
    assert restored.num_edges == index.num_edges
    assert restored.num_hot_targets == 0  # 8 entries at most, below 160
    for c in index.targets():
        assert restored.entries(c) == index.entries(c)


@settings(max_examples=25, deadline=None)
@given(rows=event_rows, threshold=st.integers(1, 8))
def test_restore_repacks_into_own_layout(rows, threshold):
    """A restore re-packs a deque-only D's edges under the restoring D's
    *own* threshold: same contents, rings exactly where it would promote."""
    source = d_index(50.0, NEVER_PROMOTE)
    clock = 0.0
    for actor, target, offset, action in rows:
        clock += offset / 20.0
        source.insert(actor, target, clock, action=action)
    restored = d_index(50.0, threshold)
    restore_dynamic_arrays(restored, dynamic_index_arrays(source))
    assert restored.num_edges == source.num_edges
    assert restored._edges == source._edges
    assert restored.num_hot_targets == sum(
        len(source.entries(c)) >= threshold for c in source.targets()
    )
    for c in source.targets():
        assert restored.entries(c) == source.entries(c)


def test_snapshot_roundtrip_feeds_both_s_backends(tmp_path):
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=300, mean_followings=6.0, seed=11)
    )
    path = tmp_path / "graph.npz"
    snapshot.save(path)
    reloaded = type(snapshot).load(path)
    index = build_follower_snapshot(reloaded)
    model = model_followers(snapshot.follow_edges())
    assert isinstance(index, StaticFollowerIndex)
    assert index.num_edges == snapshot.num_edges
    assert sorted(index.sources()) == sorted(model)
    for b, followers in model.items():
        assert index.followers_of(b).tolist() == followers


# ----------------------------------------------------------------------
# Full engine
# ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5_000), burst_actors=st.integers(10, 60))
def test_engine_matrix_identical_recommendations(seed, burst_actors):
    """Per-event, batched, and never-promoting engines emit byte-identical
    recommendations.

    A tiny promote threshold guarantees the burst target actually crosses
    the ring promotion boundary mid-stream.
    """
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=200, mean_followings=8.0, seed=seed)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=200,
            duration=300.0,
            background_rate=1.0,
            bursts=(
                BurstSpec(
                    target=199, start=30.0, duration=80.0, num_actors=burst_actors
                ),
            ),
            seed=seed,
        )
    )
    params = DetectionParams(k=2, tau=400.0, max_trigger_sources=8)

    def run(promote_threshold, batch_size):
        engine = MotifEngine.from_snapshot(
            snapshot, params, max_edges_per_target=12, track_latency=False
        )
        engine.dynamic_index.promote_threshold = promote_threshold
        if batch_size is None:  # the oracle, by name
            recs = [rec for e in events for rec in engine.process(e)]
        else:
            recs = engine.process_stream(events, batch_size=batch_size)
        return recs, [(r.via, r.action) for r in recs], engine

    recs, detail, engine = run(5, 1)
    assert engine.dynamic_index.num_hot_targets >= 1
    for other in (run(5, 17), run(NEVER_PROMOTE, 1), run(NEVER_PROMOTE, None)):
        assert other[0] == recs
        assert other[1] == detail
