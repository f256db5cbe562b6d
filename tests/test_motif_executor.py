"""Compiled motifs: every catalog motif runs on the batched diamond kernel.

A spec compiles to a configured :class:`DiamondDetector`, so the checks
here are the kernel's own contract restated per motif: the batched engine
path equals the per-event ``engine.process`` loop on mixed-action streams,
and on follow-only streams the catalog diamond equals the hand-configured
one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import EventBatch
from repro.core.diamond import DiamondDetector
from repro.core.engine import MotifEngine
from repro.core.events import ActionType, EdgeEvent
from repro.core.params import DetectionParams
from repro.core.recommendation import RecommendationBatch
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.static_index import StaticFollowerIndex
from repro.motif.catalog import (
    MOTIF_CATALOG,
    build_detector,
    co_retweet_spec,
    diamond_spec,
    favorite_burst_spec,
    wedge_spec,
)
from repro.motif.planner import compile_motif

from tests.conftest import A1, A2, B1, B2, C2, FIGURE1_FOLLOWS

#: The hub every mixed-action stream keeps returning to; 41..47 are cold.
HUB = 40
TAU = 20.0
BATCH_SIZES = (1, 7, 64)


def make_indexes(follows=FIGURE1_FOLLOWS, retention=3600.0):
    s = StaticFollowerIndex.from_follow_edges(follows)
    d = DynamicEdgeIndex(retention=retention)
    return s, d


def mixed_action_follows() -> list[tuple[int, int]]:
    """48 users following witnesses 0..15 (so witnesses, targets and
    recipients overlap and every exclusion cuts something), plus some
    recipient -> target edges for the S probe."""
    edges = [
        (a, b)
        for a in range(48)
        for b in range(16)
        if a != b and (a * 5 + b * 3) % 7 < 3
    ]
    edges += [(a, t) for a in range(48) for t in range(HUB, 48) if a != t and (a + t) % 5 == 0]
    return edges


def mixed_action_events(raw) -> list[EdgeEvent]:
    """``(gap, actor, target, action)`` tuples -> a non-decreasing stream
    (gaps of 0 give equal timestamps)."""
    events, t = [], 0.0
    for gap, actor, target, action in raw:
        t += gap
        events.append(EdgeEvent(t, actor, target, action))
    return events


def random_mixed_action_events(n: int, seed: int) -> list[EdgeEvent]:
    rng = random.Random(seed)
    return mixed_action_events(
        (
            rng.choice((0.0, 0.0, 1.0, 2.5)),
            rng.randrange(16),
            HUB if rng.random() < 0.4 else rng.randrange(HUB + 1, 48),
            rng.choice(list(ActionType)),
        )
        for _ in range(n)
    )


def catalog_kwargs(name: str, k: int) -> dict:
    return {"tau": TAU} if name == "wedge" else {"k": k, "tau": TAU}


def catalog_engine(name, k, static):
    dynamic = DynamicEdgeIndex(retention=TAU)
    dynamic.promote_threshold = 4
    detector = build_detector(
        name, static, dynamic, inserts_edges=False, **catalog_kwargs(name, k)
    )
    return MotifEngine(static, dynamic, [detector], track_latency=False)


def per_event_run(engine, events, batch_size, clock):
    """The per-event loop, grouped as ``(event index, candidates)``."""
    out = []
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        now = chunk[-1].created_at if clock else None
        for i, event in enumerate(chunk, start):
            recs = engine.process(event, now)
            if recs:
                out.append((i, recs))
    return out


def batched_run(engine, events, batch_size, clock):
    """``process_batch_grouped`` per chunk, re-attributed by ``by_event``."""
    out = []
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        now = chunk[-1].created_at if clock else None
        got = engine.process_batch_grouped(EventBatch.from_events(chunk), now)
        out += [(start + i, list(recs)) for i, recs in RecommendationBatch.by_event([got])]
    return out


mixed_streams = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.0, 1.0, 2.5)),
        st.integers(0, 15),
        st.one_of(st.just(HUB), st.integers(HUB + 1, 47)),
        st.sampled_from(list(ActionType)),
    ),
    max_size=80,
)


@pytest.mark.parametrize("name", sorted(MOTIF_CATALOG))
@settings(max_examples=25, deadline=None)
@given(raw=mixed_streams, k=st.integers(1, 3), clock=st.booleans())
def test_catalog_motif_batched_equals_per_event_loop(name, raw, k, clock):
    """Each catalog motif, batched at 1 / 7 / 64, emits what the per-event
    ``engine.process`` loop does — same candidates, same ``event`` stamps,
    same detector statistics, same D."""
    events = mixed_action_events(raw)
    static = StaticFollowerIndex.from_follow_edges(mixed_action_follows())
    for batch_size in BATCH_SIZES:
        reference = catalog_engine(name, k, static)
        batched = catalog_engine(name, k, static)
        want = per_event_run(reference, events, batch_size, clock)
        assert batched_run(batched, events, batch_size, clock) == want
        assert batched.detectors[0].stats == reference.detectors[0].stats
        assert batched.dynamic_index._edges == reference.dynamic_index._edges


def test_mixed_action_stream_exercises_every_motif():
    """The seeded stream the cluster leg uses triggers every motif."""
    events = random_mixed_action_events(240, seed=3)
    static = StaticFollowerIndex.from_follow_edges(mixed_action_follows())
    for name in MOTIF_CATALOG:
        engine = catalog_engine(name, 2, static)
        assert per_event_run(engine, events, 1, clock=False), name


follow_edges = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(lambda e: e[0] != e[1]),
    max_size=40,
)
follow_streams = st.lists(
    st.tuples(st.floats(0, 100), st.integers(0, 12), st.integers(0, 12)).filter(
        lambda e: e[1] != e[2]
    ),
    max_size=40,
)


class TestEquivalenceWithHandCoded:
    """On follow-only streams the catalog diamond is the hand-configured
    diamond, per event and batched."""

    @settings(max_examples=50, deadline=None)
    @given(follows=follow_edges, raw_events=follow_streams, k=st.integers(1, 3))
    def test_equivalence(self, follows, raw_events, k):
        tau = 20.0
        events = sorted(
            (EdgeEvent(t, b, c) for t, b, c in raw_events),
            key=lambda e: e.created_at,
        )

        s1, d1 = make_indexes(follows, retention=tau)
        hand_coded = DiamondDetector(s1, d1, DetectionParams(k=k, tau=tau))
        s2, d2 = make_indexes(follows, retention=tau)
        compiled = compile_motif(diamond_spec(k=k, tau=tau), s2, d2)
        for event in events:
            assert compiled.on_edge(event) == hand_coded.on_edge(event)
        assert compiled.stats == hand_coded.stats

        for batch_size in (1, 7):
            engines = []
            for detector in (
                lambda s, d: DiamondDetector(
                    s, d, DetectionParams(k=k, tau=tau), inserts_edges=False
                ),
                lambda s, d: compile_motif(
                    diamond_spec(k=k, tau=tau), s, d, inserts_edges=False
                ),
            ):
                s, d = make_indexes(follows, retention=tau)
                engines.append(MotifEngine(s, d, [detector(s, d)]))
            hand, catalog = (
                batched_run(engine, events, batch_size, clock=True)
                for engine in engines
            )
            assert catalog == hand
            assert engines[1].detectors[0].stats == engines[0].detectors[0].stats


class TestCompiledDiamond:
    def test_figure1(self):
        s, d = make_indexes()
        detector = compile_motif(diamond_spec(k=2, tau=600.0), s, d)
        assert detector.on_edge(EdgeEvent(0.0, B1, C2)) == []
        recs = detector.on_edge(EdgeEvent(10.0, B2, C2))
        assert [(r.recipient, r.candidate) for r in recs] == [(A2, C2)]
        assert recs[0].motif == "diamond"
        assert recs[0].via == (B1, B2)

    def test_explain_lists_the_kernel_stages(self):
        s, d = make_indexes()
        explain = compile_motif(diamond_spec(k=2, tau=600.0), s, d).explain()
        assert explain.splitlines() == [
            "kernel for motif 'diamond':",
            "  1. scan D (tau=600s, action=follow)",
            "  2. threshold (fresh witnesses >= 2)",
            "  3. k-overlap of the witnesses' S follower lists (k=2)",
            "  4. exclude recipient == candidate",
            "  5. exclude recipients among the fresh witnesses",
            "  6. exclude recipient -> candidate in S",
            "  7. emit (motif=diamond)",
        ]

    def test_stats_accumulate(self):
        s, d = make_indexes()
        detector = compile_motif(diamond_spec(k=2, tau=600.0), s, d)
        detector.on_edge(EdgeEvent(0.0, B1, C2))
        detector.on_edge(EdgeEvent(10.0, B2, C2))
        stats = detector.stats
        assert (stats.events_seen, stats.below_threshold) == (2, 1)
        assert (stats.triggers, stats.candidates_emitted) == (1, 1)

    def test_other_actions_neither_trigger_nor_count_below_threshold(self):
        s, d = make_indexes()
        detector = compile_motif(diamond_spec(k=2, tau=600.0), s, d)
        detector.on_edge(EdgeEvent(0.0, B1, C2))
        assert detector.on_edge(EdgeEvent(1.0, B2, C2, ActionType.RETWEET)) == []
        stats = detector.stats
        assert (stats.events_seen, stats.below_threshold, stats.triggers) == (2, 1, 0)

    def test_max_witnesses_keeps_the_uncapped_via(self):
        s, d = make_indexes(FIGURE1_FOLLOWS + [(A2, 7)])
        detector = compile_motif(diamond_spec(k=2, tau=600.0), s, d, max_witnesses=2)
        detector.on_edge(EdgeEvent(0.0, 7, C2))
        detector.on_edge(EdgeEvent(1.0, B1, C2))
        recs = detector.on_edge(EdgeEvent(2.0, B2, C2))
        assert [r.recipient for r in recs] == [A2]
        assert recs[0].via == (7, B1, B2)

    @pytest.mark.parametrize("promote_threshold", [4, 160])
    def test_via_past_the_cap_is_every_fresh_witness_on_both_lanes(
        self, promote_threshold
    ):
        """Twelve fresh witnesses under ``max_witnesses=3``: the audience
        expands the newest three, while ``via`` lists all of them — on the
        batched lane (two batches, so the witnesses reach the detector
        through D's batch scan, and a ring-backed target's second batch
        through its sliding window) and on the per-event lane alike."""
        witnesses = list(range(100, 112))
        follows = [(a, b) for a in range(10) for b in witnesses]
        events = [EdgeEvent(float(i), b, 50) for i, b in enumerate(witnesses)]

        def engine():
            s = StaticFollowerIndex.from_follow_edges(follows)
            d = DynamicEdgeIndex(retention=600.0)
            d.promote_threshold = promote_threshold
            detector = compile_motif(
                diamond_spec(k=2, tau=600.0), s, d, inserts_edges=False, max_witnesses=3
            )
            return MotifEngine(s, d, [detector])

        oracle = engine()
        per_event = [oracle.process(e) for e in events]
        batched = engine()
        got = [
            list(recs)
            for chunk in (events[:6], events[6:])
            for _event, recs in RecommendationBatch.by_event(
                [batched.process_batch_grouped(EventBatch.from_events(chunk))]
            )
        ]
        want = [recs for recs in per_event if recs]
        assert got == want
        assert [[r.via for r in recs] for recs in got] == [
            [r.via for r in recs] for recs in want
        ]
        last = want[-1]
        assert [r.recipient for r in last] == list(range(10))
        assert last[0].via == tuple(witnesses)
        assert len(last[0].via) > 3
        dynamic = batched.dynamic_index
        assert dynamic.sliding_targets == (promote_threshold == 4)

    def test_works_inside_engine(self):
        s, d = make_indexes()
        detector = compile_motif(
            diamond_spec(k=2, tau=600.0), s, d, inserts_edges=False
        )
        engine = MotifEngine(s, d, [detector])
        engine.process(EdgeEvent(0.0, B1, C2))
        recs = engine.process(EdgeEvent(10.0, B2, C2))
        assert [r.recipient for r in recs] == [A2]


class TestOtherCatalogMotifs:
    def test_wedge_fires_on_single_witness(self):
        s, d = make_indexes()
        detector = compile_motif(wedge_spec(tau=600.0), s, d)
        recs = detector.on_edge(EdgeEvent(0.0, B1, C2))
        assert {(r.recipient, r.candidate) for r in recs} == {(A1, C2), (A2, C2)}
        assert recs[0].motif == "wedge"

    def test_co_retweet_ignores_follows(self):
        s, d = make_indexes()
        detector = compile_motif(co_retweet_spec(k=2, tau=600.0), s, d)
        # Two FOLLOW events toward the same target: filtered by action.
        detector.on_edge(EdgeEvent(0.0, B1, C2, ActionType.FOLLOW))
        assert detector.on_edge(EdgeEvent(1.0, B2, C2, ActionType.FOLLOW)) == []

    def test_co_retweet_fires_on_retweets(self):
        s, d = make_indexes()
        detector = compile_motif(co_retweet_spec(k=2, tau=600.0), s, d)
        tweet = 999
        detector.on_edge(EdgeEvent(0.0, B1, tweet, ActionType.RETWEET))
        recs = detector.on_edge(EdgeEvent(1.0, B2, tweet, ActionType.RETWEET))
        assert [(r.recipient, r.candidate) for r in recs] == [(A2, tweet)]
        assert recs[0].action is ActionType.RETWEET

    def test_favorite_burst(self):
        s, d = make_indexes()
        detector = compile_motif(favorite_burst_spec(k=2, tau=600.0), s, d)
        tweet = 500
        detector.on_edge(EdgeEvent(0.0, B1, tweet, ActionType.FAVORITE))
        recs = detector.on_edge(EdgeEvent(1.0, B2, tweet, ActionType.FAVORITE))
        assert [r.recipient for r in recs] == [A2]

    def test_mixed_action_streams_kept_separate(self):
        """A retweet and a favorite toward the same tweet must not combine
        for an action-filtered motif."""
        s, d = make_indexes()
        detector = compile_motif(co_retweet_spec(k=2, tau=600.0), s, d)
        tweet = 999
        detector.on_edge(EdgeEvent(0.0, B1, tweet, ActionType.RETWEET))
        recs = detector.on_edge(EdgeEvent(1.0, B2, tweet, ActionType.FAVORITE))
        assert recs == []


class TestCatalogRegistry:
    def test_build_detector_by_name(self):
        s, d = make_indexes()
        detector = build_detector("diamond", s, d, k=2, tau=600.0)
        assert detector.name == "diamond"
        detector.on_edge(EdgeEvent(0.0, B1, C2))
        assert detector.on_edge(EdgeEvent(1.0, B2, C2)) != []

    def test_unknown_name_lists_catalog(self):
        s, d = make_indexes()
        with pytest.raises(KeyError, match="co-retweet"):
            build_detector("nonsense", s, d)

    def test_all_catalog_entries_compile(self):
        s, d = make_indexes()
        for name in MOTIF_CATALOG:
            detector = build_detector(name, s, d)
            assert isinstance(detector, DiamondDetector)
            assert detector.explain().startswith(f"kernel for motif '{name}'")
