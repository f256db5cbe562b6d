"""Unit + property tests for the D structure (DynamicEdgeIndex)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.dynamic_index import (
    _NO_FRESH_SOURCES,
    DEFAULT_PROMOTE_THRESHOLD,
    DynamicEdgeIndex,
    FreshEdge,
)


def make_index(retention=100.0, cap=None):
    return DynamicEdgeIndex(retention=retention, max_edges_per_target=cap)


class TestInsertAndQuery:
    def test_fresh_sources_returns_recent_edges(self):
        index = make_index()
        index.insert(1, 50, timestamp=10.0)
        index.insert(2, 50, timestamp=20.0)
        fresh = index.fresh_sources(50, now=25.0, tau=30.0)
        assert fresh == [FreshEdge(1, 10.0), FreshEdge(2, 20.0)]

    def test_tau_filters_old_edges(self):
        index = make_index()
        index.insert(1, 50, timestamp=0.0)
        index.insert(2, 50, timestamp=90.0)
        fresh = index.fresh_sources(50, now=100.0, tau=20.0)
        assert [edge.source for edge in fresh] == [2]

    def test_future_edges_not_returned(self):
        # An edge time-stamped after `now` (clock skew) must not count.
        index = make_index()
        index.insert(1, 50, timestamp=30.0)
        assert index.fresh_sources(50, now=10.0, tau=50.0) == []

    def test_unknown_target_empty(self):
        assert make_index().fresh_sources(7, now=0.0, tau=10.0) == []

    def test_duplicate_source_keeps_latest_only(self):
        index = make_index()
        index.insert(1, 50, timestamp=10.0)
        index.insert(1, 50, timestamp=40.0)
        fresh = index.fresh_sources(50, now=50.0, tau=100.0)
        assert fresh == [FreshEdge(1, 40.0)]

    def test_results_ordered_by_timestamp(self):
        index = make_index()
        index.insert(3, 50, timestamp=30.0)
        index.insert(1, 50, timestamp=10.0)  # slightly out of order
        index.insert(2, 50, timestamp=20.0)
        fresh = index.fresh_sources(50, now=40.0, tau=100.0)
        assert [edge.source for edge in fresh] == [1, 2, 3]

    def test_tau_beyond_retention_rejected(self):
        index = make_index(retention=50.0)
        with pytest.raises(ValueError, match="retention"):
            index.fresh_sources(1, now=0.0, tau=60.0)

    def test_non_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            make_index().fresh_sources(1, now=0.0, tau=0.0)


class TestPruning:
    def test_lazy_window_pruning_on_insert(self):
        index = make_index(retention=10.0)
        index.insert(1, 50, timestamp=0.0)
        index.insert(2, 50, timestamp=100.0)  # 1's edge is now stale
        assert index.num_edges == 1
        assert index.evicted_total == 1

    def test_per_target_cap_evicts_oldest(self):
        index = make_index(cap=3)
        for i in range(5):
            index.insert(i, 50, timestamp=float(i))
        fresh = index.fresh_sources(50, now=10.0, tau=100.0)
        assert [edge.source for edge in fresh] == [2, 3, 4]
        assert index.num_edges == 3
        assert index.evicted_total == 2

    def test_prune_expired_sweeps_all_targets(self):
        index = make_index(retention=10.0)
        for c in range(5):
            index.insert(1, c, timestamp=0.0)
        index.insert(1, 99, timestamp=100.0)
        removed = index.prune_expired(now=100.0)
        assert removed == 5
        assert index.num_targets == 1
        assert index.num_edges == 1

    def test_prune_idempotent(self):
        index = make_index(retention=10.0)
        index.insert(1, 50, timestamp=0.0)
        assert index.prune_expired(now=100.0) == 1
        assert index.prune_expired(now=100.0) == 0

    def test_empty_targets_removed_from_map(self):
        index = make_index(retention=10.0)
        index.insert(1, 50, timestamp=0.0)
        index.prune_expired(now=100.0)
        assert 50 not in list(index.targets())

    def test_memory_decreases_after_prune(self):
        index = make_index(retention=10.0)
        for i in range(1000):
            index.insert(i, i % 7, timestamp=0.0)
        before = index.memory_bytes()
        index.prune_expired(now=1000.0)
        assert index.memory_bytes() < before


class TestAccounting:
    def test_counters(self):
        index = make_index()
        index.insert(1, 5, timestamp=0.0)
        index.insert(2, 5, timestamp=1.0)
        index.insert(3, 6, timestamp=2.0)
        assert index.num_edges == 3
        assert index.num_targets == 2
        assert index.inserted_total == 3
        assert sorted(index.targets()) == [5, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicEdgeIndex(retention=0.0)
        with pytest.raises(ValueError):
            DynamicEdgeIndex(retention=10.0, max_edges_per_target=0)


class TestProperties:
    @given(
        inserts=st.lists(
            st.tuples(
                st.integers(0, 10),   # b
                st.integers(0, 5),    # c
                st.floats(0, 1000),   # timestamp
            ),
            max_size=80,
        ),
        tau=st.floats(1.0, 500.0),
    )
    def test_fresh_sources_matches_naive_replay(self, inserts, tau):
        """Whatever order edges arrive, freshness must match a full replay.

        The index prunes only entries that can never satisfy any tau within
        retention, so querying with `now` = max timestamp must agree with a
        brute-force scan over the full history (restricted to the window).
        """
        retention = 1000.0  # large enough that nothing is ever pruned
        index = DynamicEdgeIndex(retention=retention)
        history = []
        for b, c, t in inserts:
            index.insert(b, c, t)
            history.append((b, c, t))
        if not history:
            return
        now = max(t for _, _, t in history)
        for c in {c for _, c, _ in history}:
            expected = {}
            for b, c2, t in history:
                if c2 == c and now - tau <= t <= now:
                    expected[b] = max(expected.get(b, t), t)
            got = index.fresh_sources(c, now=now, tau=tau)
            assert {e.source: e.timestamp for e in got} == expected

    @given(
        inserts=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 3)),
            max_size=60,
        ),
        cap=st.integers(1, 10),
    )
    def test_cap_invariant(self, inserts, cap):
        """No target ever stores more than the cap."""
        index = DynamicEdgeIndex(retention=1e9, max_edges_per_target=cap)
        for i, (b, c) in enumerate(inserts):
            index.insert(b, c, float(i))
            for target in index.targets():
                assert len(index._edges[target]) <= cap

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 3), st.floats(0, 100)),
            max_size=60,
        )
    )
    def test_edge_count_consistent(self, inserts):
        """num_edges == inserted_total - evicted_total at all times."""
        index = DynamicEdgeIndex(retention=50.0, max_edges_per_target=5)
        for b, c, t in inserts:
            index.insert(b, c, t)
            assert index.num_edges == index.inserted_total - index.evicted_total


class TestRingBackend:
    """Unit coverage of the columnar rings' own mechanics.

    Ring/deque equivalence on random streams lives in
    ``tests/test_backend_equivalence.py``; these tests pin promotion
    plumbing, wrap-around, growth, and accounting.
    """

    def make_ring_index(self, cap=None, threshold=4):
        index = DynamicEdgeIndex(retention=100.0, max_edges_per_target=cap)
        index.promote_threshold = threshold
        return index

    def test_promotion_counts_hot_targets(self):
        index = self.make_ring_index(threshold=3)
        for i in range(2):
            index.insert(i, 5, float(i))
        assert index.num_hot_targets == 0
        index.insert(2, 5, 2.0)
        assert index.num_hot_targets == 1
        index.insert(3, 6, 2.0)  # a second, cold target stays a deque
        assert index.num_hot_targets == 1
        assert index.num_targets == 2

    def test_ring_wraps_under_cap_eviction(self):
        index = self.make_ring_index(cap=4, threshold=2)
        for i in range(50):
            index.insert(i, 9, float(i))
        fresh = index.fresh_sources(9, now=49.0, tau=90.0)
        assert [e.source for e in fresh] == [46, 47, 48, 49]
        assert index.num_edges == 4
        assert index.evicted_total == 46

    def test_capless_ring_grows(self):
        index = self.make_ring_index(cap=None, threshold=2)
        for i in range(500):
            index.insert(i, 9, float(i) / 100.0)  # all inside the window
        assert index.num_edges == 500
        assert len(index.fresh_sources(9, now=5.0, tau=90.0)) == 500

    def test_window_pruning_inside_ring(self):
        index = self.make_ring_index(threshold=2)
        for i in range(10):
            index.insert(i, 9, float(i))
        index.insert(99, 9, 150.0)  # cutoff 50 -> drops all ten old entries
        assert index.num_edges == 1
        assert index.evicted_total == 10
        assert [e.source for e in index.fresh_sources(9, now=150.0, tau=90.0)] == [99]

    def test_action_filter_on_ring(self):
        from repro.core import ActionType

        index = self.make_ring_index(threshold=2)
        for i in range(6):
            action = ActionType.RETWEET if i % 2 else ActionType.FOLLOW
            index.insert(i, 9, float(i), action=action)
        retweets = index.fresh_sources(9, now=6.0, tau=90.0, action=ActionType.RETWEET)
        assert [e.source for e in retweets] == [1, 3, 5]
        assert all(e.action is ActionType.RETWEET for e in retweets)
        # An action tag never inserted matches nothing.
        assert index.fresh_sources(9, now=6.0, tau=90.0, action=ActionType.FAVORITE) == []

    def test_entries_backend_neutral_view(self):
        deque_index = DynamicEdgeIndex(retention=100.0)
        deque_index.promote_threshold = 2**62
        ring_index = self.make_ring_index(threshold=2)
        for idx in (deque_index, ring_index):
            for i in range(5):
                idx.insert(i, 9, float(i))
        assert (deque_index.num_hot_targets, ring_index.num_hot_targets) == (0, 1)
        assert deque_index.entries(9) == ring_index.entries(9)
        assert ring_index.entries(12345) == []

    def test_action_tag_limit_is_a_stated_contract(self):
        """Rings store a uint16 code per edge: 65,535 distinct tags fit,
        the 65,536th raises — and the rejected tag is not interned."""
        index = self.make_ring_index(threshold=65_535)
        tags = [object() for _ in range(65_536)]
        for i, tag in enumerate(tags[:-1]):
            index.insert(i, 9, 0.0, action=tag)
        assert index.num_hot_targets == 1  # promoted with 65,535 tags
        for _ in range(2):
            with pytest.raises(ValueError, match="65535"):
                index.insert(65_535, 9, 0.0, action=tags[-1])
        assert len(index.entries(9)) == 65_535
        assert index.fresh_sources(9, now=0.0, tau=1.0, action=tags[-1]) == []


class TestRingBulkExtend:
    """Ring-aware grouped bulk inserts (insert_batch on hot targets)."""

    def test_bulk_group_into_ring_matches_sequential_inserts(self):
        from repro.core import EdgeEvent, EventBatch

        # One hot target hit 40 times inside one batch, plus background
        # singletons: the repeated group takes the bulk-safe ring path.
        events = [EdgeEvent(float(i), 1000 + i, 7) for i in range(40)]
        events += [EdgeEvent(40.0 + i, i, i + 1) for i in range(5)]
        events += [EdgeEvent(45.0 + i, 2000 + i, 7) for i in range(40)]

        reference, batched = DynamicEdgeIndex(retention=1e6), DynamicEdgeIndex(retention=1e6)
        reference.promote_threshold = batched.promote_threshold = 8
        for e in events:
            reference.insert(e.actor, e.target, e.created_at, action=e.action)
        batched.insert_batch(EventBatch.from_events(events))

        assert batched.num_hot_targets == reference.num_hot_targets == 1
        assert batched._edges == reference._edges
        assert batched.num_edges == reference.num_edges
        assert batched.inserted_total == reference.inserted_total
        assert batched.evicted_total == reference.evicted_total

    def test_bulk_extend_wraps_and_prunes(self):
        from repro.core import EdgeEvent, EventBatch

        # Advance the ring's start pointer via window pruning, then land a
        # bulk group large enough to wrap around the circular buffer.
        index = DynamicEdgeIndex(retention=50.0)
        index.promote_threshold = 4
        for i in range(10):
            index.insert(i, 7, float(i))
        assert index.num_hot_targets == 1
        events = [EdgeEvent(60.0 + i, 100 + i, 7) for i in range(30)]
        index.insert_batch(EventBatch.from_events(events))
        # Old edges (cutoff 89 - 50) are pruned; the bulk group survives.
        fresh = index.fresh_sources(7, now=89.0, tau=49.0)
        assert [e.source for e in fresh] == [100 + i for i in range(30)]

    def test_hotring_extend_matches_appends(self):
        import numpy as np

        from repro.graph.dynamic_index import _HotRing

        table: list = [None]
        sequential = _HotRing(8, table)
        bulk = _HotRing(8, table)
        # Rotate both rings so the bulk write must wrap.
        for ring in (sequential, bulk):
            for i in range(6):
                ring.append(float(i), i, 0)
            for _ in range(4):
                ring.popleft()
        ts = np.arange(10, dtype=np.float64)
        src = np.arange(10, dtype=np.int64) + 100
        act = np.zeros(10, dtype=np.uint16)
        for t, s, a in zip(ts, src, act):
            sequential.append(float(t), int(s), int(a))
        bulk.extend(ts, src, act)
        assert list(bulk) == list(sequential)
        assert bulk.count == sequential.count


class TestOwnLayout:
    """D picks its own layout: rings from :data:`DEFAULT_PROMOTE_THRESHOLD`
    stored edges, deques again below half of it, and no option to move
    the switch.  Queries answer alike either way."""

    def layout_index(self, layout):
        index = make_index()
        if layout == "ring":
            index.promote_threshold = 1  # every target is a ring at once
        return index

    def test_layout_switch_is_not_an_option(self):
        from repro.cluster import ClusterConfig

        assert make_index().promote_threshold == DEFAULT_PROMOTE_THRESHOLD == 160
        with pytest.raises(TypeError):
            DynamicEdgeIndex(retention=100.0, promote_threshold=4)
        with pytest.raises(TypeError):
            ClusterConfig(promote_threshold=77)

    def test_promotes_at_the_constant_and_demotes_below_half(self):
        index = make_index()
        for i in range(DEFAULT_PROMOTE_THRESHOLD - 1):
            index.insert(i, 9, i * 0.5)
        assert index.num_hot_targets == 0
        before = index.entries(9)
        index.insert(DEFAULT_PROMOTE_THRESHOLD - 1, 9, 79.5)
        assert index.num_hot_targets == 1
        assert index.entries(9) == before + [(79.5, DEFAULT_PROMOTE_THRESHOLD - 1, None)]
        # Edges sit 0.5 s apart from t=0: cutoff 40 keeps the newest 80,
        # exactly half the threshold, so the ring stays.
        assert index.prune_expired(140.0) == 80
        assert index.num_hot_targets == 1
        kept = index.entries(9)
        assert len(kept) == DEFAULT_PROMOTE_THRESHOLD // 2
        # One edge fewer is below half: back to a deque, same contents.
        assert index.prune_expired(140.5) == 1
        assert index.num_hot_targets == 0
        assert index.entries(9) == kept[1:]
        assert index.num_edges == DEFAULT_PROMOTE_THRESHOLD // 2 - 1

    @pytest.mark.parametrize("layout", ["deque", "ring"])
    def test_empty_answers_are_fresh_lists(self, layout):
        """``fresh_sources`` hands out a list of the caller's own: the
        batched read shares one empty result, the single read never."""
        from repro.core import ActionType

        index = self.layout_index(layout)
        index.insert(1, 9, 0.0, action=ActionType.FOLLOW)
        index.insert(2, 9, 1.0, action=ActionType.FOLLOW)
        assert index.num_hot_targets == (layout == "ring")
        misses = [
            index.fresh_sources(7, now=5.0, tau=10.0),  # unknown target
            index.fresh_sources(9, now=50.0, tau=10.0),  # only stale edges
            index.fresh_sources(9, now=5.0, tau=10.0, action=ActionType.RETWEET),
        ]
        assert misses == [[], [], []]
        assert len({id(miss) for miss in misses}) == 3
        for miss in misses:
            assert miss is not _NO_FRESH_SOURCES
            miss.append("caller's own")
        assert _NO_FRESH_SOURCES == []
        assert index.fresh_sources(7, now=5.0, tau=10.0) == []
        assert index.fresh_sources_multi([7], [5.0], 10.0) == [[]]

    @pytest.mark.parametrize("layout", ["deque", "ring"])
    def test_single_edge_window_bounds(self, layout):
        """A target's one stored edge counts from ``now - tau`` through
        ``now`` inclusive, under its own action only, on either layout."""
        from repro.core import ActionType

        index = self.layout_index(layout)
        index.insert(4, 9, 30.0, action=ActionType.RETWEET)
        assert index.num_hot_targets == (layout == "ring")
        edge = [FreshEdge(4, 30.0, ActionType.RETWEET)]
        assert index.fresh_sources(9, now=30.0, tau=10.0) == edge
        assert index.fresh_sources(9, now=40.0, tau=10.0) == edge
        assert index.fresh_sources(9, now=40.0, tau=10.0, action=ActionType.RETWEET) == edge
        assert index.fresh_sources(9, now=40.5, tau=10.0) == []
        assert index.fresh_sources(9, now=29.5, tau=10.0) == []
        assert index.fresh_sources(9, now=35.0, tau=10.0, action=ActionType.FOLLOW) == []
        raw = index.fresh_sources_multi([9], [35.0], 10.0, raw=True)[0]
        assert list(raw) == [(30.0, 4, ActionType.RETWEET)]


class TestSharedStreamPosition:
    """One D shared by several engines: each batch scanned once per key
    and inserted once, whichever engine gets there first."""

    def test_second_engine_at_a_position_does_not_insert(self):
        index = make_index()
        first, second, batch = object(), object(), object()
        assert index.enter(batch, first)
        assert not index.enter(batch, second)
        # The same engine at the same object again has moved on: a new
        # position, so a private D inserts every batch it is given.
        assert index.enter(batch, first)

    def test_joining_engines_read_the_opening_engines_kept_scans(self):
        from repro.core import EdgeEvent, EventBatch

        # Target 9 repeats: its second event must see the first one, and
        # the insert must not leak into the kept scan.
        events = [
            EdgeEvent(1.0, 1, 9),
            EdgeEvent(2.0, 2, 8),
            EdgeEvent(3.0, 3, 9),
        ]
        batch = EventBatch.from_events(events)
        shared = make_index()
        assert shared.enter(batch, "p0")
        scan = shared.fresh_batch(batch, None, 100.0, 1)
        # A second program of the same key reads it again, unscanned;
        # scans are keyed by (now, tau, min_count, action).
        assert shared.fresh_batch(batch, None, 100.0, 1) is scan
        rt_scan = shared.fresh_batch(batch, None, 100.0, 1, "rt")
        assert rt_scan is not scan
        assert shared.num_edges == 0  # scanning inserts nothing
        shared.insert_batch(batch)
        assert not shared.enter(batch, "p1")
        assert shared.fresh_batch(batch, None, 100.0, 1) is scan
        assert shared.fresh_batch(batch, None, 100.0, 1, "rt") is rt_scan
        # The opening engine never read this key: D is past the batch, so
        # a joining engine cannot scan it and must not guess.
        with pytest.raises(RuntimeError, match="same"):
            shared.fresh_batch(batch, None, 100.0, 2)
        assert shared.inserted_total == 3
        # The per-event loop: insert, then read.
        private = make_index()
        want = []
        for event in events:
            private.insert(
                event.actor, event.target, event.created_at, event.action
            )
            want.append(
                private.fresh_sources_multi(
                    [event.target], [event.created_at], 100.0, raw=True
                )[0]
            )
        assert scan == want
        assert [len(fresh) for fresh in scan] == [1, 1, 2]
        shared.leave()
        assert not shared._scans
