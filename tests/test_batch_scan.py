"""D's one-pass batch scan ≡ the per-event insert-then-query oracle.

``DynamicEdgeIndex.fresh_sources_multi(..., pending=batch)`` answers every
event of a batch before the batch is inserted, as the per-event loop
would right after inserting that event; ``insert_batch`` then inserts the
batch once.  These tests hold the pair to the oracle — ``insert`` then a
one-query ``fresh_sources_multi`` per event — on random streams with hot
targets repeating inside a batch, caps above and below the window, pruning
at ``retention``, equal and out-of-order timestamps, repeated sources,
action filters and batch sizes 1 / 7 / 64 / 256, and check that both the
sliding-window path and the per-event fallback actually ran.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ActionType, EdgeEvent, EventBatch
from repro.graph import DynamicEdgeIndex

RETENTION = 60.0
ACTIONS = (ActionType.FOLLOW, ActionType.RETWEET, ActionType.FAVORITE)


def make_stream(seed, n, hubs, unique_sources, steps):
    """*n* events: half of them on *hubs* hot targets, the rest on a cold
    id space; sources unique or drawn from a small pool (repeats)."""
    rng = random.Random(seed)
    t = 0.0
    events = []
    for i in range(n):
        t += rng.choice(steps)
        target = rng.randrange(hubs) if rng.random() < 0.5 else rng.randrange(10, 40)
        actor = 1_000 + i if unique_sources else rng.randrange(100, 112)
        events.append(EdgeEvent(max(t, 0.0), actor, target, rng.choice(ACTIONS)))
    return events


def run_both(events, batch_size, tau, cap, min_count, action, flush_clock):
    """Drive *events* through the batch scan and the oracle; assert they
    agree per event and on D after every batch.  Returns the index that
    took the batch scan."""
    def index():
        d = DynamicEdgeIndex(retention=RETENTION, max_edges_per_target=cap)
        d.promote_threshold = 4
        return d

    batched, oracle = index(), index()
    for start in range(0, len(events), batch_size):
        chunk = events[start : start + batch_size]
        now = chunk[-1].created_at if flush_clock else None
        nows = [e.created_at if now is None else max(e.created_at, now) for e in chunk]
        batch = EventBatch.from_events(chunk)
        got = batched.fresh_sources_multi(
            batch.columns()[2], nows, tau, action, min_count, raw=True, pending=batch
        )
        batched.insert_batch(batch)
        want = []
        for event, at in zip(chunk, nows):
            oracle.insert(event.actor, event.target, event.created_at, event.action)
            want += oracle.fresh_sources_multi(
                [event.target], [at], tau, action, min_count, raw=True
            )
        assert [list(fresh) for fresh in got] == [list(fresh) for fresh in want]
        assert batched.inserted_total == oracle.inserted_total
        assert batched.evicted_total == oracle.evicted_total
        assert batched.num_edges == oracle.num_edges
        assert sorted(batched.targets()) == sorted(oracle.targets())
        for c in oracle.targets():
            assert batched.entries(c) == oracle.entries(c)
        if start // batch_size % 3 == 2:
            assert batched.prune_expired(nows[-1]) == oracle.prune_expired(nows[-1])
    return batched


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch_size=st.sampled_from([1, 7, 64, 256]),
    hubs=st.integers(1, 3),
    unique_sources=st.booleans(),
    steps=st.sampled_from(
        [
            (0.2, 0.5, 1.0),  # strictly increasing: the sliding path
            (0.0, 0.5, 1.0),  # equal timestamps
            (-2.0, 0.5, 1.0, 1.5),  # out of order
            (0.5, 5.0, 30.0),  # gaps past retention: pruning
        ]
    ),
    tau=st.sampled_from([20.0, RETENTION]),
    cap=st.sampled_from([None, 3, 6, 50]),
    min_count=st.sampled_from([0, 1, 3]),
    action=st.sampled_from([None, ActionType.RETWEET]),
    flush_clock=st.booleans(),
)
def test_batch_scan_matches_per_event_oracle(
    seed, batch_size, hubs, unique_sources, steps, tau, cap, min_count, action,
    flush_clock,
):
    events = make_stream(seed, 300, hubs, unique_sources, steps)
    run_both(events, batch_size, tau, cap, min_count, action, flush_clock)


@pytest.mark.parametrize("cap", [None, 6])
@pytest.mark.parametrize("action", [None, ActionType.RETWEET])
def test_both_paths_run(cap, action):
    """A hub with distinct sources at rising timestamps slides; a hub
    with a repeated source falls back to the per-event scan."""
    events = make_stream(3, 600, 1, True, (0.2, 0.5, 1.0))
    events += [
        EdgeEvent(events[-1].created_at + 1.0 + i, 100 + i % 5, 0, ACTIONS[i % 3])
        for i in range(120)
    ]
    index = run_both(events, 64, 20.0, cap, 3, action, flush_clock=True)
    assert index.sliding_targets > 0
    assert index.fallback_targets > 0
