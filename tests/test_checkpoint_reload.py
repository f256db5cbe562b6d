"""Tests for D checkpointing and S hot-reload (periodic offline load)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.core import ActionType, DetectionParams, EdgeEvent, MotifEngine
from repro.core.checkpoint import load_dynamic_index, save_dynamic_index
from repro.graph import DynamicEdgeIndex, GraphSnapshot
from repro.graph.dynamic_index import DEFAULT_PROMOTE_THRESHOLD

from tests.conftest import A1, A2, A3, B1, B2, C2, FIGURE1_FOLLOWS

PARAMS = DetectionParams(k=2, tau=600.0)


class TestDynamicIndexCheckpoint:
    def test_roundtrip_preserves_queries(self, tmp_path):
        index = DynamicEdgeIndex(retention=100.0, max_edges_per_target=5)
        index.insert(1, 10, 5.0, action=ActionType.FOLLOW)
        index.insert(2, 10, 6.0, action=ActionType.RETWEET)
        index.insert(3, 11, 7.0)
        path = tmp_path / "d.npz"
        written = save_dynamic_index(index, path)
        assert written == 3

        restored = load_dynamic_index(path)
        assert restored.retention == 100.0
        assert restored.max_edges_per_target == 5
        assert restored.num_edges == 3
        got = restored.fresh_sources(10, now=10.0, tau=50.0)
        assert [(e.source, e.timestamp, e.action) for e in got] == [
            (1, 5.0, ActionType.FOLLOW),
            (2, 6.0, ActionType.RETWEET),
        ]

    def test_action_filter_survives_roundtrip(self, tmp_path):
        index = DynamicEdgeIndex(retention=100.0)
        index.insert(1, 10, 5.0, action=ActionType.RETWEET)
        index.insert(2, 10, 6.0, action=ActionType.FOLLOW)
        path = tmp_path / "d.npz"
        save_dynamic_index(index, path)
        restored = load_dynamic_index(path)
        retweets = restored.fresh_sources(
            10, now=10.0, tau=50.0, action=ActionType.RETWEET
        )
        assert [e.source for e in retweets] == [1]

    @pytest.mark.parametrize(
        "retired",
        [
            {"backend": "ring", "promote_threshold": 8},
            {"backend": "list", "promote_threshold": 8},
            {},
            {"promote_threshold": 77},
            {"backend": "ring"},
        ],
        ids=["ring", "list", "pre-PR-2", "promote-threshold", "backend"],
    )
    def test_files_with_retired_backend_field_still_load(self, tmp_path, retired):
        """Checkpoints written before D had one layout carry a ``backend``
        array next to a ``promote_threshold`` one; later ones carry only
        the threshold, and the oldest neither.  All load into D's own
        layout with identical contents — the reader ignores unknown keys,
        it never rejects them."""
        import numpy as np

        index = DynamicEdgeIndex(retention=100.0, max_edges_per_target=16)
        index.promote_threshold = 8
        for i in range(40):
            index.insert(i % 11, 10, float(i), action=ActionType.RETWEET)
            index.insert(i, 20 + i % 3, float(i))
        assert index.num_hot_targets >= 1
        current = tmp_path / "current.npz"
        save_dynamic_index(index, current)
        with np.load(current) as data:
            arrays = {name: data[name] for name in data.files}
        # Writers emit neither key any more.
        assert not {"backend", "promote_threshold"} & set(arrays)
        if "backend" in retired:
            arrays["backend"] = np.str_(retired["backend"])
        if "promote_threshold" in retired:
            arrays["promote_threshold"] = np.int64(retired["promote_threshold"])
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)

        restored = load_dynamic_index(legacy)
        assert restored.promote_threshold == DEFAULT_PROMOTE_THRESHOLD
        assert restored.retention == 100.0
        assert restored.max_edges_per_target == 16
        assert restored.num_edges == index.num_edges
        assert sorted(restored.targets()) == sorted(index.targets())
        for c in index.targets():
            assert restored.entries(c) == index.entries(c)
        assert restored.fresh_sources(10, now=40.0, tau=50.0) == (
            index.fresh_sources(10, now=40.0, tau=50.0)
        )

    def test_empty_index_roundtrip(self, tmp_path):
        index = DynamicEdgeIndex(retention=10.0)
        path = tmp_path / "empty.npz"
        assert save_dynamic_index(index, path) == 0
        restored = load_dynamic_index(path)
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
        import tempfile
        from pathlib import Path

        index = DynamicEdgeIndex(retention=1_000.0)
        for b, c, t, action in inserts:
            index.insert(b, c, t, action=action)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.npz"
            save_dynamic_index(index, path)
            restored = load_dynamic_index(path)
            assert restored.num_edges == index.num_edges
            for c in index.targets():
                want = index.fresh_sources(c, now=100.0, tau=1_000.0)
                got = restored.fresh_sources(c, now=100.0, tau=1_000.0)
                assert got == want

    def test_warm_started_detector_matches_original(self, tmp_path):
        """A replica restored from checkpoint serves the same results."""
        snapshot = GraphSnapshot.from_edges(FIGURE1_FOLLOWS, num_nodes=8)
        original = MotifEngine.from_snapshot(snapshot, PARAMS)
        original.process(EdgeEvent(0.0, B1, C2))

        path = tmp_path / "warm.npz"
        save_dynamic_index(original.dynamic_index, path)
        restored_index = load_dynamic_index(path)
        warm = MotifEngine.from_snapshot(snapshot, PARAMS)
        warm.dynamic_index.clone_state_from(restored_index)

        want = original.process(EdgeEvent(10.0, B2, C2))
        got = warm.process(EdgeEvent(10.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in got] == [
            (r.recipient, r.candidate) for r in want
        ]


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
