"""Unit tests for the single-machine MotifEngine."""

import pytest

from repro.core.diamond import DiamondDetector
from repro.core.engine import MotifEngine
from repro.core.events import EdgeEvent
from repro.core.params import DetectionParams
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.snapshot import GraphSnapshot
from repro.graph.static_index import StaticFollowerIndex

from tests.conftest import A2, B1, B2, C2, FIGURE1_FOLLOWS


class TestFromSnapshot:
    def test_figure1_end_to_end(self, figure1_engine):
        assert figure1_engine.process(EdgeEvent(0.0, B1, C2)) == []
        recs = figure1_engine.process(EdgeEvent(10.0, B2, C2))
        assert [rec.recipient for rec in recs] == [A2]

    def test_default_params_are_production(self, figure1_snapshot):
        engine = MotifEngine.from_snapshot(figure1_snapshot)
        detector = engine.detectors[0]
        assert detector.params.k == 3

    def test_retention_defaults_to_tau(self, figure1_snapshot):
        engine = MotifEngine.from_snapshot(
            figure1_snapshot, DetectionParams(k=2, tau=123.0)
        )
        assert engine.dynamic_index.retention == 123.0

    def test_influencer_limit_passed_through(self):
        # User 1 follows both B's; a limit of 1 keeps only B1 -> no diamond.
        snap = GraphSnapshot.from_edges(FIGURE1_FOLLOWS, num_nodes=8)
        engine = MotifEngine.from_snapshot(
            snap, DetectionParams(k=2, tau=600.0), influencer_limit=1
        )
        engine.process(EdgeEvent(0.0, B1, C2))
        assert engine.process(EdgeEvent(1.0, B2, C2)) == []


class TestEngineMechanics:
    def test_single_insert_feeds_all_detectors(self):
        s = StaticFollowerIndex.from_follow_edges(FIGURE1_FOLLOWS)
        d = DynamicEdgeIndex(retention=600.0)
        detectors = [
            DiamondDetector(s, d, DetectionParams(k=2, tau=600.0), inserts_edges=False),
            DiamondDetector(s, d, DetectionParams(k=1, tau=600.0), inserts_edges=False),
        ]
        engine = MotifEngine(s, d, detectors)
        engine.process(EdgeEvent(0.0, B1, C2))
        assert d.inserted_total == 1  # one insert despite two programs

    def test_co_hosted_engines_scan_and_insert_each_batch_once(self):
        """Two engines on one D, two same-key programs each: one insert
        and one scan per batch between all four programs, and the same
        candidates and D as each engine on a private D."""
        from repro.core.batch import iter_event_batches

        s = StaticFollowerIndex.from_follow_edges(FIGURE1_FOLLOWS)
        params = DetectionParams(k=2, tau=600.0)
        # C2 repeats within a batch: the scan must not be the post-insert D.
        events = [
            EdgeEvent(0.0, B1, C2),
            EdgeEvent(1.0, A2, 7),
            EdgeEvent(2.0, B2, C2),
            EdgeEvent(3.0, 5, C2),
        ]

        def engines(d):
            return [
                MotifEngine(
                    s,
                    d,
                    [DiamondDetector(s, d, params, inserts_edges=False) for _ in range(2)],
                )
                for _ in range(2)
            ]

        shared = DynamicEdgeIndex(retention=600.0)
        calls = {"insert_batch": 0, "fresh_sources_multi": 0}
        for name in calls:
            def counted(*args, _method=getattr(shared, name), _name=name, **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)

            setattr(shared, name, counted)
        co_hosted = engines(shared)
        privates = [engines(DynamicEdgeIndex(retention=600.0))[0] for _ in range(2)]
        batches = list(iter_event_batches(events, 2)) + list(iter_event_batches(events[::-1], 4))
        for batch in batches:
            got = [engine.process_batch(batch, 10.0) for engine in co_hosted]
            want = [engine.process_batch(batch, 10.0) for engine in privates]
            assert got == want
        assert calls == {"insert_batch": len(batches), "fresh_sources_multi": len(batches)}
        assert shared.inserted_total == 2 * len(events)
        for c in shared.targets():
            assert shared.entries(c) == privates[0].dynamic_index.entries(c)
        assert all(engine.stats.recommendations_emitted for engine in co_hosted)

    def test_requires_a_detector(self):
        s = StaticFollowerIndex.from_follow_edges(FIGURE1_FOLLOWS)
        d = DynamicEdgeIndex(retention=600.0)
        with pytest.raises(ValueError):
            MotifEngine(s, d, [])

    def test_rejects_an_on_edge_only_program(self):
        class OnEdgeOnly:
            name = "on-edge-only"

            def on_edge(self, event, now=None):
                return []

        s = StaticFollowerIndex.from_follow_edges(FIGURE1_FOLLOWS)
        d = DynamicEdgeIndex(retention=600.0)
        with pytest.raises(TypeError, match="'on-edge-only' has no scan_batch"):
            MotifEngine(s, d, [OnEdgeOnly()])
        OnEdgeOnly.scan_batch = lambda self, batch, now: []
        with pytest.raises(TypeError, match="has no process_batch"):
            MotifEngine(s, d, [OnEdgeOnly()])

    def test_process_stream(self, figure1_engine):
        events = [EdgeEvent(0.0, B1, C2), EdgeEvent(1.0, B2, C2)]
        recs = figure1_engine.process_stream(events)
        assert len(recs) == 1
        assert figure1_engine.stats.events_processed == 2
        assert figure1_engine.stats.recommendations_emitted == 1

    def test_latency_tracked(self, figure1_engine):
        figure1_engine.process(EdgeEvent(0.0, B1, C2))
        assert len(figure1_engine.stats.query_latency) == 1
        assert figure1_engine.stats.query_latency.stats.mean >= 0.0

    def test_latency_tracking_can_be_disabled(self, figure1_snapshot):
        engine = MotifEngine.from_snapshot(
            figure1_snapshot, DetectionParams(k=2, tau=600.0), track_latency=False
        )
        engine.process(EdgeEvent(0.0, B1, C2))
        assert len(engine.stats.query_latency) == 0

    def test_prune_delegates_to_dynamic_index(self, figure1_engine):
        figure1_engine.process(EdgeEvent(0.0, B1, C2))
        removed = figure1_engine.prune(now=10_000.0)
        assert removed == 1
        assert figure1_engine.dynamic_index.num_edges == 0

    def test_memory_report_keys(self, figure1_engine):
        report = figure1_engine.memory_bytes()
        assert set(report) == {"static_index", "dynamic_index"}
        assert report["static_index"] > 0
