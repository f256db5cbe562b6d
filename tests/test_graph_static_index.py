"""Unit tests for the S structure (StaticFollowerIndex)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.static_index import StaticFollowerIndex

EDGES = [(0, 10), (1, 10), (2, 10), (2, 11), (3, 11), (0, 12)]


class TestConstruction:
    def test_inverts_follow_edges(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        assert list(index.followers_of(10)) == [0, 1, 2]
        assert list(index.followers_of(11)) == [2, 3]
        assert list(index.followers_of(12)) == [0]

    def test_unknown_target_is_empty(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        assert list(index.followers_of(999)) == []

    def test_duplicates_collapsed(self):
        index = StaticFollowerIndex.from_follow_edges([(1, 5), (1, 5), (1, 5)])
        assert list(index.followers_of(5)) == [1]
        assert index.num_edges == 1

    def test_lists_are_sorted_packed_arrays(self):
        index = StaticFollowerIndex.from_follow_edges([(9, 1), (3, 1), (7, 1)])
        followers = index.followers_of(1)
        assert isinstance(followers, np.ndarray) and followers.dtype == np.int64
        assert list(followers) == [3, 7, 9]

    def test_counts(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        assert index.num_targets == 3
        assert index.num_edges == len(EDGES)

    def test_empty_index(self):
        index = StaticFollowerIndex.from_follow_edges([])
        assert index.num_targets == 0
        assert index.num_edges == 0
        assert not index.has_edge(0, 0)


class TestPartitionRestriction:
    def test_include_source_filters_a_side(self):
        evens = StaticFollowerIndex.from_follow_edges(
            EDGES, include_source=lambda a: a % 2 == 0
        )
        assert list(evens.followers_of(10)) == [0, 2]
        assert list(evens.followers_of(11)) == [2]

    def test_partitions_cover_everything_disjointly(self):
        full = StaticFollowerIndex.from_follow_edges(EDGES)
        parts = [
            StaticFollowerIndex.from_follow_edges(
                EDGES, include_source=lambda a, p=p: a % 2 == p
            )
            for p in range(2)
        ]
        for b in (10, 11, 12):
            union = sorted(
                a for part in parts for a in part.followers_of(b)
            )
            assert union == list(full.followers_of(b))


class TestInfluencerLimit:
    def test_limits_follows_per_source(self):
        # User 0 follows four accounts; cap at 2 keeps the two lowest ids
        # under uniform weights.
        edges = [(0, 10), (0, 11), (0, 12), (0, 13), (1, 13)]
        index = StaticFollowerIndex.from_follow_edges(edges, influencer_limit=2)
        kept = [b for b in (10, 11, 12, 13) if 0 in index.followers_of(b)]
        assert kept == [10, 11]
        # Other users unaffected.
        assert 1 in index.followers_of(13)

    def test_weighted_limit_keeps_top_weight(self):
        edges = [(0, 10), (0, 11), (0, 12)]
        weights = {(0, 10): 0.1, (0, 11): 0.9, (0, 12): 0.5}
        index = StaticFollowerIndex.from_follow_edges(
            edges,
            influencer_limit=2,
            edge_weight=lambda a, b: weights[(a, b)],
        )
        assert 0 in index.followers_of(11)
        assert 0 in index.followers_of(12)
        assert 0 not in index.followers_of(10)

    def test_limit_reduces_edges_and_memory(self):
        edges = [(0, b) for b in range(100)] + [(1, b) for b in range(100)]
        full = StaticFollowerIndex.from_follow_edges(edges)
        capped = StaticFollowerIndex.from_follow_edges(edges, influencer_limit=10)
        assert capped.num_edges == 20
        assert full.num_edges == 200
        assert capped.memory_bytes() < full.memory_bytes()

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            StaticFollowerIndex.from_follow_edges(EDGES, influencer_limit=0)


class TestHasEdge:
    def test_present_and_absent(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        assert index.has_edge(0, 10)
        assert index.has_edge(3, 11)
        assert not index.has_edge(3, 10)
        assert not index.has_edge(0, 999)

    @given(
        st.sets(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=50
        )
    )
    def test_matches_edge_set(self, edge_set):
        index = StaticFollowerIndex.from_follow_edges(edge_set)
        for a in range(31):
            for b in range(31):
                assert index.has_edge(a, b) == ((a, b) in edge_set)


class TestAccounting:
    def test_membership_and_sources(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        assert 10 in index
        assert 999 not in index
        assert sorted(index.sources()) == [10, 11, 12]

    def test_degree_histogram(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        assert index.degree_histogram() == {3: 1, 2: 1, 1: 1}

    def test_memory_scales_with_edges(self):
        small = StaticFollowerIndex.from_follow_edges([(a, 0) for a in range(10)])
        large = StaticFollowerIndex.from_follow_edges(
            [(a, 0) for a in range(10_000)]
        )
        assert large.memory_bytes() > small.memory_bytes() * 100


class TestCsrFollowerIndex:
    """The CSR arena's own mechanics: zero-copy views and the
    append-and-compact overlay.

    Equivalence with a plain-Python model on random graphs lives in
    ``tests/test_backend_equivalence.py``.
    """

    def test_inverts_follow_edges(self):
        """Rows sit back-to-back in one arena, delimited by the offsets."""
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        offsets = index._offsets.tolist()
        rows = {
            b: index._arena[lo:hi].tolist()
            for b, lo, hi in zip(index.sources(), offsets, offsets[1:])
        }
        assert rows == {10: [0, 1, 2], 11: [2, 3], 12: [0]}
        assert offsets[0] == 0 and offsets[-1] == len(index._arena) == len(EDGES)

    def test_followers_are_zero_copy_arena_slices(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        view = index.followers_of(10)
        assert isinstance(view, np.ndarray)
        assert view.base is index._arena  # a view, not a copy
        assert index.follower_array(10) is not None
        assert index.follower_array(999) is None

    def test_influencer_limit_applied(self):
        """The cap is applied before packing: dropped edges never reach
        the arena."""
        edges = [(1, b) for b in range(10)]
        index = StaticFollowerIndex.from_follow_edges(edges, influencer_limit=3)
        assert index._arena.tolist() == [1, 1, 1]
        assert list(index.sources()) == [0, 1, 2]

    def test_append_visible_before_and_after_compact(self):
        index = StaticFollowerIndex.from_follow_edges(EDGES)
        added = index.append_follow_edges([(7, 10), (0, 10), (5, 99)])
        assert added == 2  # (0, 10) already loaded
        assert index.pending_edges == 2
        assert list(index.followers_of(10)) == [0, 1, 2, 7]
        assert list(index.followers_of(99)) == [5]
        assert index.has_edge(7, 10) and index.has_edge(5, 99)
        assert 99 in index
        assert index.num_edges == len(EDGES) + 2
        index.compact()
        assert index.pending_edges == 0
        assert list(index.followers_of(10)) == [0, 1, 2, 7]
        assert list(index.followers_of(99)) == [5]
        assert index.num_edges == len(EDGES) + 2


class TestCsrArenaSnapshots:
    """S has no file of its own: it is rebuilt from the offline snapshot
    (the CLI's ``graph.npz``), so a reload must give back the same S."""

    @staticmethod
    def reloaded(snapshot, tmp_path):
        from repro.graph import GraphSnapshot

        path = tmp_path / "graph.npz"
        snapshot.save(path)
        return GraphSnapshot.load(path)

    def test_npz_round_trip_exact(self, tmp_path):
        from repro.graph import GraphSnapshot, build_follower_snapshot

        edges = [(a, b) for b in range(50) for a in range(b % 13 + 1)]
        index = StaticFollowerIndex.from_follow_edges(edges)
        loaded = build_follower_snapshot(
            self.reloaded(GraphSnapshot.from_edges(edges), tmp_path)
        )

        assert loaded.num_targets == index.num_targets
        assert loaded.num_edges == index.num_edges
        assert sorted(loaded.sources()) == sorted(index.sources())
        for b in index.sources():
            assert list(loaded.followers_of(b)) == list(index.followers_of(b))
        assert loaded.has_edge(0, 1) == index.has_edge(0, 1)
        assert loaded.follower_array(999) is None
        # The reloaded index still supports the append-and-compact overlay.
        loaded.append_follow_edges([(999, 1)])
        assert loaded.has_edge(999, 1)

    def test_empty_index_round_trips(self, tmp_path):
        from repro.graph import GraphSnapshot, build_follower_snapshot

        loaded = build_follower_snapshot(
            self.reloaded(GraphSnapshot.from_edges([], num_nodes=0), tmp_path)
        )
        assert loaded.num_targets == 0
        assert loaded.follower_array(1) is None

    def test_influencer_limit_survives_reload(self, tmp_path):
        """The snapshot's weights travel with it, so the capped S a
        reload builds keeps the same top-weight B's."""
        from repro.graph import GraphSnapshot, build_follower_snapshot

        edges = [(a, b) for a in range(6) for b in range(10, 16)]
        weights = {(a, b): float((a * 7 + b) % 11) for a, b in edges}
        snapshot = GraphSnapshot.from_edges(edges, edge_weights=weights)
        want = build_follower_snapshot(snapshot, influencer_limit=2)
        got = build_follower_snapshot(
            self.reloaded(snapshot, tmp_path), influencer_limit=2
        )
        assert got.num_edges == want.num_edges == 6 * 2
        for b in want.sources():
            assert list(got.followers_of(b)) == list(want.followers_of(b))

    def test_partition_shards_survive_reload(self, tmp_path):
        from repro.graph import GraphSnapshot

        edges = [(a, b) for b in range(30) for a in range(b % 7 + 1)]
        snapshot = GraphSnapshot.from_edges(edges)
        owners = np.arange(snapshot.num_users, dtype=np.int64) % 3
        want = StaticFollowerIndex.load_shards(snapshot, owners, 3)
        got = StaticFollowerIndex.load_shards(
            self.reloaded(snapshot, tmp_path), owners, 3
        )
        assert [s.num_edges for s in got] == [s.num_edges for s in want]
        assert sum(s.num_edges for s in got) == len(edges)
        for shard_got, shard_want in zip(got, want):
            for b in shard_want.sources():
                assert list(shard_got.followers_of(b)) == list(
                    shard_want.followers_of(b)
                )
