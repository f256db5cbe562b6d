"""The sliding-window audience kernel against its two oracles.

A target that triggers again and again within one batch has its audiences
solved by one sort (``DiamondDetector._sliding_audience``).  Every shape
below runs one flush three ways — the sliding kernel, the per-trigger
k-overlap (``_audience_batch``, forced by a subclass that declines every
group) and the boxed per-event loop (``on_edge`` / ``_audience``) — and
requires the same groups per event and the same ``DiamondStats``.  Each
shape also pins which path the kernel took, so a silently declining
kernel cannot pass as equivalent.
"""

import random

import pytest

from repro.core import (
    DetectionParams,
    DiamondDetector,
    EdgeEvent,
    EventBatch,
    MotifEngine,
    RecommendationBatch,
)
from repro.graph import DynamicEdgeIndex, StaticFollowerIndex

HUB = 7


class Recording(DiamondDetector):
    """The production detector, counting the groups the kernel solved."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.solved = 0
        self.declined = 0

    def _sliding_audience(self, target, windows):
        result = super()._sliding_audience(target, windows)
        if result is None:
            self.declined += 1
        else:
            self.solved += 1
        return result


class PerTrigger(DiamondDetector):
    """Every trigger through its own k-overlap."""

    def _sliding_audience(self, target, windows):
        return None


def burst_graph(seed, witnesses, audience, p=0.3, empty=()):
    """S for a burst: each of *audience* follows each witness with
    probability *p*; witnesses in *empty* have no followers."""
    rng = random.Random(seed)
    followers = {}
    for b in witnesses:
        if b in empty:
            continue
        chosen = sorted(a for a in audience if rng.random() < p)
        if chosen:
            followers[b] = chosen
    return followers


def burst(witnesses, target=HUB, start=100.0, step=1.0):
    return [
        EdgeEvent(start + i * step, b, target) for i, b in enumerate(witnesses)
    ]


def group_rows(batch):
    return [
        (
            g.event,
            g.candidate,
            g.created_at,
            g.recipients.tolist(),
            g.via,
            g.action,
            g.motif,
        )
        for g in batch.groups
    ]


def per_event_view(batch, n):
    """The flush's one batch regrouped by event, one entry per event."""
    by_event = dict(RecommendationBatch.by_event([batch]))
    return [list(by_event.get(i, ())) for i in range(n)]


def run_three_ways(followers, events, params, d_cap=None, clock="flush"):
    """One flush through the kernel, the per-trigger path and the boxed
    per-event loop; asserts they agree and returns the kernel's detector."""
    static = StaticFollowerIndex(followers)
    now = events[-1].created_at if clock == "flush" else None

    def engine(detector_cls):
        dynamic = DynamicEdgeIndex(
            retention=params.tau, max_edges_per_target=d_cap
        )
        detector = detector_cls(static, dynamic, params, inserts_edges=False)
        return MotifEngine(static, dynamic, [detector], track_latency=False)

    sliding, per_trigger, per_event = (
        engine(Recording), engine(PerTrigger), engine(DiamondDetector)
    )
    batch = EventBatch.from_events(events)
    got = sliding.process_batch_grouped(batch, now)
    want = per_trigger.process_batch_grouped(batch, now)
    boxed = [per_event.process(e, now) for e in events]

    assert group_rows(got) == group_rows(want)
    per_event_got = per_event_view(got, len(events))
    assert per_event_got == boxed
    assert [[(r.via, r.action, r.motif) for r in recs] for recs in per_event_got] == [
        [(r.via, r.action, r.motif) for r in recs] for recs in boxed
    ]
    stats = sliding.detectors[0].stats
    assert stats == per_trigger.detectors[0].stats
    assert stats == per_event.detectors[0].stats
    assert stats.triggers, "no trigger: the shape proves nothing"
    return sliding.detectors[0]


WITNESSES = list(range(100, 180))
AUDIENCE = list(range(1_000, 1_400))


@pytest.mark.parametrize("clock", ["flush", "event"])
@pytest.mark.parametrize(
    "cap, k", [(None, 3), (32, 3), (3, 3), (8, 2)], ids=["growing", "cap32", "cap=k", "cap8"]
)
def test_windows_growing_and_sliding(cap, k, clock):
    followers = burst_graph(1, WITNESSES, AUDIENCE)
    params = DetectionParams(k=k, tau=600.0, max_trigger_sources=cap)
    detector = run_three_ways(followers, burst(WITNESSES), params, clock=clock)
    assert detector.solved == 1 and detector.declined == 0


def test_witness_acting_again_mid_flush_takes_per_trigger_path():
    """The re-acting witness moves to the newest end: later windows are no
    longer slices of one sequence, so the group is declined."""
    witnesses = WITNESSES[:30]
    followers = burst_graph(2, witnesses, AUDIENCE)
    order = witnesses[:15] + [witnesses[4]] + witnesses[15:]
    params = DetectionParams(k=3, tau=600.0)
    detector = run_three_ways(followers, burst(order), params)
    assert detector.solved == 0 and detector.declined == 1


def test_witness_acting_again_after_sliding_out_is_still_declined():
    """Under a cap the old edge has left every later window, but the
    sequence would hold the witness twice: declined, still exact."""
    witnesses = WITNESSES[:30]
    followers = burst_graph(3, witnesses, AUDIENCE)
    order = witnesses[:20] + [witnesses[2]] + witnesses[20:]
    params = DetectionParams(k=3, tau=600.0, max_trigger_sources=8)
    detector = run_three_ways(followers, burst(order), params)
    assert detector.solved == 0 and detector.declined == 1


@pytest.mark.parametrize("cap", [None, 32])
def test_d_cap_evicting_mid_flush(cap):
    followers = burst_graph(4, WITNESSES, AUDIENCE)
    params = DetectionParams(k=3, tau=600.0, max_trigger_sources=cap)
    detector = run_three_ways(followers, burst(WITNESSES), params, d_cap=6)
    assert detector.solved == 1


def test_freshness_cutoff_slides_windows():
    """Per-event clocks: old witnesses age out of tau inside the batch."""
    followers = burst_graph(5, WITNESSES, AUDIENCE)
    params = DetectionParams(k=3, tau=10.0)
    detector = run_three_ways(
        followers, burst(WITNESSES, step=0.5), params, clock="event"
    )
    assert detector.solved == 1


def test_empty_follower_lists_inside_windows():
    empty = set(WITNESSES[::3])
    followers = burst_graph(6, WITNESSES, AUDIENCE, empty=empty)
    params = DetectionParams(k=3, tau=600.0, max_trigger_sources=16)
    detector = run_three_ways(followers, burst(WITNESSES), params)
    assert detector.solved == 1
    assert detector.stats.empty_follower_lists > 0


@pytest.mark.parametrize("exclude", [True, False])
def test_exclusions_witness_target_and_existing_follower(exclude):
    """A witness who follows other witnesses, the target following its own
    witnesses, and an existing follower of the target: dropped exactly
    when the flags say so."""
    witnesses = WITNESSES[:40]
    followers = burst_graph(7, witnesses, AUDIENCE)
    existing = AUDIENCE[0]
    acting = witnesses[30]
    for b in witnesses[:20]:
        followers[b] = sorted(set(followers.get(b, [])) | {existing, acting, HUB})
    followers[HUB] = sorted({existing, *AUDIENCE[5:9]})
    params = DetectionParams(
        k=3,
        tau=600.0,
        max_trigger_sources=12,
        exclude_candidate_recipient=exclude,
        exclude_existing_followers=exclude,
    )
    static = StaticFollowerIndex(followers)
    dynamic = DynamicEdgeIndex(retention=600.0)
    detector = Recording(static, dynamic, params, inserts_edges=False)
    engine = MotifEngine(static, dynamic, [detector], track_latency=False)
    groups = engine.process_batch_grouped(
        EventBatch.from_events(burst(witnesses)), 200.0
    ).groups
    recipients = {a for g in groups for a in g.recipients.tolist()}
    if exclude:
        assert recipients.isdisjoint({existing, HUB})
        # The acting witness is a recipient only of windows it is not in.
        assert acting in recipients
        for g in groups:
            if acting in g.via[-12:]:
                assert acting not in g.recipients.tolist()
    else:
        assert {existing, acting, HUB} <= recipients
    detector = run_three_ways(followers, burst(witnesses), params)
    assert detector.solved == 1


def test_k_equals_one():
    followers = burst_graph(8, WITNESSES, AUDIENCE, p=0.05)
    params = DetectionParams(k=1, tau=600.0, max_trigger_sources=4)
    detector = run_three_ways(followers, burst(WITNESSES), params)
    assert detector.solved == 1


@pytest.mark.parametrize(
    "base, solved",
    [(2**32 - 1, True), (2**40, True), (2**62, False)],
    ids=["2^32-1", "2^40", "2^62-overflows"],
)
def test_large_ids_pack_or_fall_back(base, solved):
    """Recipient and witness ids far above 2^32.  At 2^62 the packed
    ``A * |Q| + position`` key would overflow int64: the kernel must
    decline the group rather than wrap."""
    witnesses = [base + i for i in range(40)]
    audience = [base + 1_000 + i for i in range(300)]
    followers = burst_graph(9, witnesses, audience)
    params = DetectionParams(k=3, tau=600.0, max_trigger_sources=16)
    detector = run_three_ways(followers, burst(witnesses, target=base + 5_000), params)
    assert (detector.solved, detector.declined) == ((1, 0) if solved else (0, 1))


def test_interleaved_targets_and_background():
    """Two hubs alternating with cold background edges: runs split at
    every repeat, groups form per target, singletons go per trigger."""
    rng = random.Random(10)
    followers = burst_graph(10, WITNESSES + list(range(500, 560)), AUDIENCE)
    events = []
    t = 100.0
    hub_a, hub_b = iter(WITNESSES), iter(range(500, 560))
    for i in range(120):
        t += 0.25
        if i % 3 == 0:
            events.append(EdgeEvent(t, next(hub_a), HUB))
        elif i % 3 == 1:
            events.append(EdgeEvent(t, next(hub_b), HUB + 1))
        else:
            events.append(EdgeEvent(t, rng.choice(WITNESSES), rng.randrange(2_000, 2_100)))
    params = DetectionParams(k=2, tau=600.0, max_trigger_sources=10)
    detector = run_three_ways(followers, events, params)
    assert detector.solved == 2


def test_two_trigger_group_reads_lists_once_and_is_declined():
    """A group reading each witness list less than twice on average goes
    per trigger: the shared sort would be no smaller."""
    witnesses = WITNESSES[:4]
    followers = burst_graph(11, witnesses, AUDIENCE, p=0.6)
    params = DetectionParams(k=3, tau=600.0)
    detector = run_three_ways(followers, burst(witnesses), params)
    assert detector.solved == 0 and detector.declined == 1


@pytest.mark.parametrize("seed", range(6))
def test_random_bursts(seed):
    """Seeded random bursts: repeats, ties, caps and clocks mixed."""
    rng = random.Random(seed)
    pool = WITNESSES[:30]
    followers = burst_graph(seed, pool, AUDIENCE, p=rng.choice([0.05, 0.2, 0.5]))
    events = []
    t = 50.0
    for _ in range(rng.randrange(20, 90)):
        t += rng.choice([0.0, 0.5, 1.0, 3.0])
        target = HUB if rng.random() < 0.7 else rng.choice([HUB + 1, HUB + 2])
        events.append(EdgeEvent(t, rng.choice(pool), target))
    params = DetectionParams(
        k=rng.choice([1, 2, 3]),
        tau=rng.choice([5.0, 600.0]),
        max_trigger_sources=rng.choice([None, 3, 8]),
    )
    run_three_ways(
        followers,
        events,
        params,
        d_cap=rng.choice([None, 5]),
        clock=rng.choice(["flush", "event"]),
    )
