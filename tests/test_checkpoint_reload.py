"""Tests for D checkpointing and S hot-reload (periodic offline load)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.core import ActionType, DetectionParams, EdgeEvent, MotifEngine
from repro.core.checkpoint import dynamic_index_arrays, restore_dynamic_arrays
from repro.graph import DynamicEdgeIndex, GraphSnapshot
from repro.graph.dynamic_index import DEFAULT_PROMOTE_THRESHOLD

from tests.conftest import A1, A2, A3, B1, B2, C2, FIGURE1_FOLLOWS

PARAMS = DetectionParams(k=2, tau=600.0)


def restored_copy(index, **kwargs):
    """A fresh D (*kwargs* its configuration) holding *index*'s
    checkpoint arrays, as ``Cluster.load_dynamic`` and the durability
    tier's snapshot store restore it."""
    restored = DynamicEdgeIndex(**kwargs)
    restore_dynamic_arrays(restored, dynamic_index_arrays(index))
    return restored


class TestDynamicIndexCheckpoint:
    def test_roundtrip_preserves_queries(self):
        index = DynamicEdgeIndex(retention=100.0, max_edges_per_target=5)
        index.insert(1, 10, 5.0, action=ActionType.FOLLOW)
        index.insert(2, 10, 6.0, action=ActionType.RETWEET)
        index.insert(3, 11, 7.0)
        arrays = dynamic_index_arrays(index)
        assert len(arrays["targets"]) == 3

        restored = DynamicEdgeIndex(retention=100.0, max_edges_per_target=5)
        assert restore_dynamic_arrays(restored, arrays) == 3
        assert restored.num_edges == 3
        got = restored.fresh_sources(10, now=10.0, tau=50.0)
        assert [(e.source, e.timestamp, e.action) for e in got] == [
            (1, 5.0, ActionType.FOLLOW),
            (2, 6.0, ActionType.RETWEET),
        ]

    def test_action_filter_survives_roundtrip(self):
        index = DynamicEdgeIndex(retention=100.0)
        index.insert(1, 10, 5.0, action=ActionType.RETWEET)
        index.insert(2, 10, 6.0, action=ActionType.FOLLOW)
        restored = restored_copy(index, retention=100.0)
        retweets = restored.fresh_sources(
            10, now=10.0, tau=50.0, action=ActionType.RETWEET
        )
        assert [e.source for e in retweets] == [1]

    @pytest.mark.parametrize(
        "source_threshold", [1, 2**62, 8], ids=["ring", "deque", "mixed"]
    )
    def test_arrays_restore_into_the_own_layout(self, source_threshold):
        """Whatever layout the checkpointed D held its targets in, the
        arrays restore into the restoring D's own layout with identical
        contents and answers."""
        index = DynamicEdgeIndex(retention=100.0, max_edges_per_target=16)
        index.promote_threshold = source_threshold
        for i in range(40):
            index.insert(i % 11, 10, float(i), action=ActionType.RETWEET)
            index.insert(i, 20 + i % 3, float(i))
        assert (index.num_hot_targets >= 1) == (source_threshold < 2**62)

        restored = restored_copy(index, retention=100.0, max_edges_per_target=16)
        assert restored.promote_threshold == DEFAULT_PROMOTE_THRESHOLD
        assert restored.num_hot_targets == 0  # 16 entries at most
        assert restored.num_edges == index.num_edges
        assert sorted(restored.targets()) == sorted(index.targets())
        for c in index.targets():
            assert restored.entries(c) == index.entries(c)
        for action in (None, ActionType.RETWEET, ActionType.FOLLOW):
            assert restored.fresh_sources(10, 40.0, 50.0, action) == (
                index.fresh_sources(10, 40.0, 50.0, action)
            )

    def test_unknown_action_code_rejected(self):
        index = DynamicEdgeIndex(retention=100.0)
        index.insert(1, 10, 5.0, action=ActionType.FOLLOW)
        arrays = dynamic_index_arrays(index)
        arrays["actions"] = np.array([9], dtype=np.int8)
        with pytest.raises(ValueError, match="action code 9"):
            restore_dynamic_arrays(DynamicEdgeIndex(retention=100.0), arrays)

    def test_restore_applies_the_restoring_cap(self):
        """Arrays restore in per-target arrival order, so a D with a
        smaller cap keeps each target's newest edges, as it would have
        had it seen the stream."""
        index = DynamicEdgeIndex(retention=100.0, max_edges_per_target=8)
        for i in range(8):
            index.insert(i, 10, float(i))
        restored = restored_copy(index, retention=100.0, max_edges_per_target=3)
        assert restored.num_edges == 3
        assert [e.source for e in restored.fresh_sources(10, 8.0, 50.0)] == [
            5,
            6,
            7,
        ]

    def test_empty_index_roundtrip(self):
        index = DynamicEdgeIndex(retention=10.0)
        arrays = dynamic_index_arrays(index)
        restored = DynamicEdgeIndex(retention=10.0)
        assert restore_dynamic_arrays(restored, arrays) == 0
        assert restored.num_edges == 0

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10),
                st.integers(0, 5),
                st.floats(0, 100),
                st.sampled_from([None, ActionType.FOLLOW, ActionType.RETWEET]),
            ),
            max_size=40,
        )
    )
    def test_roundtrip_property(self, inserts):
        index = DynamicEdgeIndex(retention=1_000.0)
        for b, c, t, action in inserts:
            index.insert(b, c, t, action=action)
        restored = restored_copy(index, retention=1_000.0)
        assert restored.num_edges == index.num_edges
        for c in index.targets():
            want = index.fresh_sources(c, now=100.0, tau=1_000.0)
            got = restored.fresh_sources(c, now=100.0, tau=1_000.0)
            assert got == want

    def test_warm_started_detector_matches_original(self):
        """A replica restored from checkpoint serves the same results."""
        snapshot = GraphSnapshot.from_edges(FIGURE1_FOLLOWS, num_nodes=8)
        original = MotifEngine.from_snapshot(snapshot, PARAMS)
        original.process(EdgeEvent(0.0, B1, C2))

        warm = MotifEngine.from_snapshot(snapshot, PARAMS)
        restore_dynamic_arrays(
            warm.dynamic_index, dynamic_index_arrays(original.dynamic_index)
        )

        want = original.process(EdgeEvent(10.0, B2, C2))
        got = warm.process(EdgeEvent(10.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in got] == [
            (r.recipient, r.candidate) for r in want
        ]


    def test_cluster_checkpoint_warm_starts_a_fresh_cluster(self):
        """The control messages a replacement deployment bootstraps with:
        ``checkpoint_dynamic`` on the live cluster, ``load_dynamic`` on a
        fresh one, which then completes the motif the live one would."""
        snapshot = GraphSnapshot.from_edges(FIGURE1_FOLLOWS, num_nodes=8)
        config = ClusterConfig(num_partitions=2, replication_factor=2)
        live = Cluster.build(snapshot, PARAMS, config)
        live.process_event(EdgeEvent(0.0, B1, C2))
        fresh = Cluster.build(snapshot, PARAMS, config)
        assert fresh.load_dynamic(live.checkpoint_dynamic()) == 1

        want = live.process_event(EdgeEvent(10.0, B2, C2))
        got = fresh.process_event(EdgeEvent(10.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in got] == [
            (r.recipient, r.candidate) for r in want
        ] == [(A2, C2)]


class TestStaticReload:
    def test_engine_reload_changes_results(self, figure1_snapshot):
        engine = MotifEngine.from_snapshot(figure1_snapshot, PARAMS)
        engine.process(EdgeEvent(0.0, B1, C2))
        recs = engine.process(EdgeEvent(1.0, B2, C2))
        assert [r.recipient for r in recs] == [A2]

        # Offline recompute: A1 now follows B2 as well -> A1 qualifies too.
        new_snapshot = GraphSnapshot.from_edges(
            FIGURE1_FOLLOWS + [(A1, B2)], num_nodes=8
        )
        from repro.graph import build_follower_snapshot

        engine.reload_static_index(build_follower_snapshot(new_snapshot))
        recs = engine.process(EdgeEvent(2.0, 7, C2))  # third fresh B
        assert A1 in {r.recipient for r in recs}

    def test_reload_keeps_dynamic_state(self, figure1_engine):
        figure1_engine.process(EdgeEvent(0.0, B1, C2))
        from repro.graph import build_follower_snapshot

        snapshot = GraphSnapshot.from_edges(FIGURE1_FOLLOWS, num_nodes=8)
        figure1_engine.reload_static_index(build_follower_snapshot(snapshot))
        # D still remembers B1's edge: the diamond completes normally.
        recs = figure1_engine.process(EdgeEvent(1.0, B2, C2))
        assert [r.recipient for r in recs] == [A2]

    def test_declarative_detector_reloads(self, figure1_snapshot):
        from repro.graph import DynamicEdgeIndex, build_follower_snapshot
        from repro.motif import compile_motif, diamond_spec

        s = build_follower_snapshot(figure1_snapshot)
        d = DynamicEdgeIndex(retention=600.0)
        detector = compile_motif(
            diamond_spec(k=2, tau=600.0), s, d, inserts_edges=False
        )
        engine = MotifEngine(s, d, [detector])
        engine.process(EdgeEvent(0.0, B1, C2))
        new_snapshot = GraphSnapshot.from_edges(
            FIGURE1_FOLLOWS + [(A3, B1)], num_nodes=8
        )
        engine.reload_static_index(build_follower_snapshot(new_snapshot))
        recs = engine.process(EdgeEvent(1.0, B2, C2))
        assert {r.recipient for r in recs} == {A2, A3}

    def test_unreloadable_detector_rejected(self, figure1_snapshot):
        from repro.core.recommendation import EMPTY_RECOMMENDATION_BATCH
        from repro.graph import DynamicEdgeIndex, build_follower_snapshot

        class OpaqueDetector:
            name = "opaque"

            def on_edge(self, event, now=None):
                return []

            def scan_batch(self, batch, now):
                return []

            def process_batch(self, batch, now=None, triggers=None):
                return EMPTY_RECOMMENDATION_BATCH

        s = build_follower_snapshot(figure1_snapshot)
        d = DynamicEdgeIndex(retention=600.0)
        engine = MotifEngine(s, d, [OpaqueDetector()])
        with pytest.raises(TypeError, match="rebind_static"):
            engine.reload_static_index(s)

    def test_cluster_rolling_reload(self, figure1_snapshot):
        cluster = Cluster.build(
            figure1_snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, replication_factor=2),
        )
        cluster.process_event(EdgeEvent(0.0, B1, C2))
        new_snapshot = GraphSnapshot.from_edges(
            FIGURE1_FOLLOWS + [(A1, B2)], num_nodes=8
        )
        cluster.reload_snapshot(new_snapshot)
        recs = cluster.process_event(EdgeEvent(1.0, B2, C2))
        assert {r.recipient for r in recs} == {A1, A2}
