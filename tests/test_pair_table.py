"""Unit + property tests for the open-addressing numpy pair tables.

Covers the table core (probe wraparound, self-colliding bulk inserts,
full-table grow, horizon compaction) and the dedup/fatigue equivalence
with their plain-Python models (``tests/reference_filters.py``): the
tables must make exactly the decisions of the dict seen-map and the deque
histories — survivors, order, and observable filter state — under
non-decreasing clocks (the streaming path's contract).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recommendation import Recommendation, RecommendationBatch, RecommendationGroup
from repro.delivery import DedupFilter, FatigueFilter
from repro.delivery.pairtable import (
    MAX_LOAD,
    PAIR_ID_LIMIT,
    Int64KeyTable,
    pack_pair,
    pack_pairs,
    unpack_pairs,
)
from tests.reference_filters import ReferenceDedup, ReferenceFatigue, allow_each


def columns_of(pairs):
    """Flat candidate columns for a list of (recipient, candidate)."""
    batch = RecommendationBatch(
        [
            RecommendationGroup([recipient], candidate=candidate, created_at=0.0)
            for recipient, candidate in pairs
        ]
    )
    return batch.columns()


def keys_with_home_slot(capacity: int, slot: int, count: int) -> list[int]:
    """The first *count* keys whose splitmix64 home slot is *slot*."""
    from repro.util.hashing import splitmix64

    out = []
    key = 0
    while len(out) < count:
        if splitmix64(key) & (capacity - 1) == slot:
            out.append(key)
        key += 1
    return out


# ---------------------------------------------------------------------------
# Key packing
# ---------------------------------------------------------------------------

class TestPacking:
    def test_round_trip_including_boundaries(self):
        recipients = np.array([0, 1, PAIR_ID_LIMIT - 1, 12345], dtype=np.int64)
        candidates = np.array([PAIR_ID_LIMIT - 1, 0, 7, 54321], dtype=np.int64)
        keys = pack_pairs(recipients, candidates)
        back_r, back_c = unpack_pairs(keys)
        assert back_r.tolist() == recipients.tolist()
        assert back_c.tolist() == candidates.tolist()

    def test_scalar_matches_columnar(self):
        recipients = np.array([3, 99, 2**31], dtype=np.int64)
        candidates = np.array([5, 0, 2**31 + 1], dtype=np.int64)
        keys = pack_pairs(recipients, candidates)
        for i in range(len(recipients)):
            assert pack_pair(int(recipients[i]), int(candidates[i])) == int(keys[i])

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError):
            pack_pair(PAIR_ID_LIMIT, 0)
        with pytest.raises(ValueError):
            pack_pair(0, -1)
        with pytest.raises(ValueError):
            pack_pairs(
                np.array([PAIR_ID_LIMIT], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )


# ---------------------------------------------------------------------------
# Table core
# ---------------------------------------------------------------------------

def fresh_table(capacity=8):
    return Int64KeyTable({"time": (np.float64, 0)}, capacity=capacity)


class TestInt64KeyTable:
    def test_scalar_upsert_and_find(self):
        table = fresh_table()
        slot, inserted = table.upsert(42)
        assert inserted
        table.columns["time"][slot] = 7.0
        assert table.find(42) == slot
        again, inserted = table.upsert(42)
        assert again == slot and not inserted
        assert table.find(43) == -1
        assert len(table) == 1

    def test_vector_insert_and_lookup(self):
        table = fresh_table(capacity=64)
        keys = np.arange(20, dtype=np.uint64)
        slots = table.insert(keys)
        assert len(np.unique(slots)) == 20  # distinct slots
        assert table.lookup(keys).tolist() == slots.tolist()
        missing = table.lookup(np.array([99, 100], dtype=np.uint64))
        assert missing.tolist() == [-1, -1]

    def test_lookup_on_empty_table(self):
        table = fresh_table()
        assert table.lookup(np.array([1, 2], dtype=np.uint64)).tolist() == [-1, -1]
        assert table.find(1) == -1

    def test_probe_wraps_around_the_capacity(self):
        # Three keys whose home is the LAST slot: the probe chain must
        # wrap to slot 0 and the keys must still resolve, scalar and
        # vectorized alike.
        capacity = 8
        table = fresh_table(capacity=capacity)
        keys = keys_with_home_slot(capacity, capacity - 1, 3)
        slots = [table.upsert(key)[0] for key in keys]
        assert slots[0] == capacity - 1
        assert slots[1] == 0 and slots[2] == 1  # wrapped
        for key, slot in zip(keys, slots):
            assert table.find(key) == slot
        vector = table.lookup(np.array(keys, dtype=np.uint64))
        assert vector.tolist() == slots

    def test_self_colliding_bulk_insert(self):
        # Many new keys share one home slot *within the same insert call*;
        # the round-based claims must still give every key its own slot on
        # a valid linear probe chain.
        capacity = 32
        table = fresh_table(capacity=capacity)
        keys = np.array(
            keys_with_home_slot(capacity, 5, 9), dtype=np.uint64
        )
        slots = table.insert(keys)
        assert len(np.unique(slots)) == len(keys)
        assert table.lookup(keys).tolist() == slots.tolist()
        for key, slot in zip(keys.tolist(), slots.tolist()):
            assert table.find(key) == slot

    def test_grow_preserves_entries_and_values(self):
        table = fresh_table(capacity=8)
        keys = np.arange(100, dtype=np.uint64)
        slots = table.insert(keys)  # far beyond 8 * MAX_LOAD: multiple grows
        table.columns["time"][slots] = keys.astype(np.float64)
        assert table.capacity >= 100 / MAX_LOAD / 2  # grew
        assert table.capacity & (table.capacity - 1) == 0  # still a power of 2
        found = table.lookup(keys)
        assert (found >= 0).all()
        assert table.columns["time"][found].tolist() == keys.astype(float).tolist()
        assert len(table) == 100

    def test_scalar_upsert_grows_too(self):
        table = fresh_table(capacity=4)
        slots = {}
        for key in range(50):
            slot, inserted = table.upsert(key)
            assert inserted
            table.columns["time"][slot] = float(key)
        for key in range(50):
            slot = table.find(key)
            assert slot >= 0
            assert table.columns["time"][slot] == float(key)

    def test_reserve_keep_evicts_marked_entries(self):
        table = fresh_table(capacity=8)
        keys = np.arange(4, dtype=np.uint64)
        slots = table.insert(keys)
        table.columns["time"][slots] = np.array([0.0, 10.0, 20.0, 30.0])
        # Force a rebuild that keeps only entries with time >= 15.
        rebuilt = table.reserve(3, keep=lambda: table.columns["time"] >= 15.0)
        assert rebuilt
        assert len(table) == 2
        assert table.lookup(keys).tolist()[0:2] == [-1, -1]
        kept = table.lookup(keys[2:])
        assert (kept >= 0).all()
        assert sorted(table.columns["time"][kept].tolist()) == [20.0, 30.0]

    def test_reserve_noop_under_load_limit(self):
        table = fresh_table(capacity=64)
        table.insert(np.arange(4, dtype=np.uint64))
        column_before = table.columns["time"]
        assert not table.reserve(4)
        assert table.columns["time"] is column_before

    def test_multi_column_specs(self):
        table = Int64KeyTable(
            {"times": (np.float64, 3), "count": (np.int32, 0)}, capacity=8
        )
        slot, _ = table.upsert(5)
        table.columns["times"][slot] = [1.0, 2.0, 3.0]
        table.columns["count"][slot] = 2
        table.insert(np.arange(100, 140, dtype=np.uint64))  # force grows
        slot = table.find(5)
        assert table.columns["times"][slot].tolist() == [1.0, 2.0, 3.0]
        assert table.columns["count"][slot] == 2

    def test_rejects_non_power_of_two_capacity(self):
        with pytest.raises(ValueError):
            Int64KeyTable({"time": (np.float64, 0)}, capacity=12)


# ---------------------------------------------------------------------------
# Dedup: table units + equivalence with the dict model
# ---------------------------------------------------------------------------

class TestDedupTableBackend:
    def test_horizon_compaction_bounds_residency(self):
        dedup = DedupFilter(window=10.0)
        for i in range(20_000):
            assert dedup.allow(
                Recommendation(recipient=i % 4096, candidate=i, created_at=0.0),
                now=float(i),
            )
        # Expired pairs are evicted when the table needs room, so the
        # live set tracks the window (~10 pairs), not the 20k inserts.
        assert dedup.tracked_pairs() < 2_000
        assert dedup._table.capacity <= 4096

    def test_wide_ids_rejected_with_guidance(self):
        """The id contract on the scalar path: both ids in [0, 2**32)."""
        dedup = DedupFilter()
        for recipient, candidate in ((2**32, 1), (1, 2**32)):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                dedup.allow(
                    Recommendation(recipient, candidate, created_at=0.0), now=0.0
                )
        assert dedup.tracked_pairs() == 0

    def test_wide_ids_rejected_by_allow_mask(self):
        """...and on the batched path, which rejects the whole batch before
        touching the table; the largest legal id still packs."""
        dedup = DedupFilter()
        for recipient, candidate in ((2**32, 1), (1, 2**32)):
            with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
                dedup.allow_mask(columns_of([(1, 1), (recipient, candidate)]), 0.0)
        assert dedup.tracked_pairs() == 0
        assert dedup.allow_mask(columns_of([(2**32 - 1, 2**32 - 1)]), 0.0).all()

    def test_entries_snapshot_matches_dict_backend(self):
        table = DedupFilter(window=100.0)
        ref = ReferenceDedup(window=100.0)
        pairs = [(1, 2), (1, 3), (1, 2), (4, 5)]
        for i, (r, c) in enumerate(pairs):
            rec = Recommendation(recipient=r, candidate=c, created_at=0.0)
            assert table.allow(rec, now=float(i)) == ref.allow(rec, now=float(i))
        assert table.last_sent_entries() == ref.last_sent


def pair_stream():
    """Batches of (recipient, candidate) pairs with heavy repetition."""
    return st.lists(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=6,
    )


class TestDedupBackendEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        batches=pair_stream(),
        window=st.floats(1.0, 5_000.0, allow_nan=False),
        step=st.floats(0.0, 2_000.0, allow_nan=False),
    )
    def test_mask_decisions_match_dict(self, batches, window, step):
        table = DedupFilter(window=window)
        ref = ReferenceDedup(window=window)
        for i, batch in enumerate(batches):
            now = i * step
            assert table.allow_mask(columns_of(batch), now).tolist() == allow_each(
                ref, batch, now
            )
        # Observable state agrees on the live horizon (the table compacts
        # expired entries away, the dict model never forgets).
        last_now = (len(batches) - 1) * step
        cutoff = last_now - window

        def live(entries):
            return {key: t for key, t in entries.items() if t >= cutoff}

        assert live(table.last_sent_entries()) == live(ref.last_sent)

    @settings(max_examples=40, deadline=None)
    @given(batches=pair_stream(), window=st.floats(1.0, 5_000.0))
    def test_scalar_allow_matches_mask(self, batches, window):
        scalar = DedupFilter(window=window)
        masked = DedupFilter(window=window)
        for i, batch in enumerate(batches):
            now = i * 100.0
            mask = masked.allow_mask(columns_of(batch), now)
            decisions = [
                scalar.allow(
                    Recommendation(recipient=r, candidate=c, created_at=0.0), now
                )
                for r, c in batch
            ]
            assert mask.tolist() == decisions


# ---------------------------------------------------------------------------
# Fatigue: table units + equivalence with the deque model
# ---------------------------------------------------------------------------

class TestFatigueTableBackend:
    def test_ring_wraps_across_rolling_windows(self):
        table = FatigueFilter(max_per_window=2, window=100.0)
        ref = ReferenceFatigue(max_per_window=2, window=100.0)
        rec = Recommendation(recipient=1, candidate=0, created_at=0.0)
        for now in (0.0, 40.0, 80.0, 120.0, 160.0, 200.0, 500.0, 510.0, 520.0):
            assert table.allow(rec, now) == ref.allow(rec, now)
            assert table.sent_in_window(1, now) == ref.sent_in_window(1, now)

    def test_horizon_compaction_evicts_dead_users(self):
        fatigue = FatigueFilter(max_per_window=1, window=5.0)
        for i in range(10_000):
            fatigue.allow(
                Recommendation(recipient=i, candidate=0, created_at=0.0),
                now=float(i),
            )
        assert fatigue._table.capacity <= 2048

    def test_huge_user_ids_supported(self):
        # Fatigue keys on the bare recipient, so 64-bit ids are fine.
        fatigue = FatigueFilter(max_per_window=1)
        rec = Recommendation(recipient=2**62, candidate=1, created_at=0.0)
        assert fatigue.allow(rec, now=0.0)
        assert not fatigue.allow(rec, now=1.0)
        assert fatigue.sent_in_window(2**62, now=1.0) == 1


class TestFatigueBackendEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=10),
            min_size=1,
            max_size=6,
        ),
        cap=st.integers(1, 4),
        window=st.floats(1.0, 5_000.0, allow_nan=False),
        step=st.floats(0.0, 2_000.0, allow_nan=False),
    )
    def test_mask_decisions_match_dict(self, batches, cap, window, step):
        table = FatigueFilter(max_per_window=cap, window=window)
        ref = ReferenceFatigue(max_per_window=cap, window=window)
        users = sorted({u for batch in batches for u in batch})
        for i, batch in enumerate(batches):
            now = i * step
            pairs = [(u, i) for u in batch]
            assert table.allow_mask(columns_of(pairs), now).tolist() == allow_each(
                ref, pairs, now
            )
            for user in users:
                assert table.sent_in_window(user, now) == ref.sent_in_window(
                    user, now
                )

    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=10),
            min_size=1,
            max_size=5,
        ),
        cap=st.integers(1, 3),
    )
    def test_scalar_allow_matches_mask(self, batches, cap):
        scalar = FatigueFilter(max_per_window=cap, window=300.0)
        masked = FatigueFilter(max_per_window=cap, window=300.0)
        for i, batch in enumerate(batches):
            now = i * 100.0
            mask = masked.allow_mask(columns_of([(u, i) for u in batch]), now)
            decisions = [
                scalar.allow(
                    Recommendation(recipient=u, candidate=i, created_at=0.0), now
                )
                for u in batch
            ]
            assert mask.tolist() == decisions


# ---------------------------------------------------------------------------
# Snapshots (delivery-tier restarts): the state_arrays / load_state payload
# the durability tier's snapshot store persists
# ---------------------------------------------------------------------------

class TestTableSnapshots:
    SPEC = {"time": (np.float64, 0), "ring": (np.float64, 4)}

    @staticmethod
    def reloaded(table, spec):
        loaded = Int64KeyTable(spec)
        loaded.load_state_arrays(table.state_arrays())
        return loaded

    def test_round_trip_preserves_live_state(self):
        table = Int64KeyTable(self.SPEC, capacity=8)
        keys = np.arange(100, dtype=np.uint64) * np.uint64(7919)
        slots = table.insert(keys)
        table.columns["time"][slots] = np.arange(100, dtype=np.float64)
        table.columns["ring"][slots] = np.arange(400, dtype=np.float64).reshape(
            100, 4
        )

        loaded = self.reloaded(table, self.SPEC)
        assert len(loaded) == len(table)
        found = loaded.lookup(keys)
        assert (found >= 0).all()
        np.testing.assert_array_equal(
            loaded.columns["time"][found], np.arange(100, dtype=np.float64)
        )
        np.testing.assert_array_equal(
            loaded.columns["ring"][found],
            np.arange(400, dtype=np.float64).reshape(100, 4),
        )

    def test_empty_table_round_trips(self):
        loaded = self.reloaded(Int64KeyTable(self.SPEC), self.SPEC)
        assert len(loaded) == 0
        assert loaded.find(123) == -1

    def test_schema_mismatch_rejected(self):
        table = Int64KeyTable({"time": (np.float64, 0)})
        table.upsert(5)
        with pytest.raises(ValueError, match="schema"):
            self.reloaded(table, {"other": (np.float64, 0)})
        with pytest.raises(ValueError, match="shape"):
            self.reloaded(table, {"time": (np.float64, 3)})

    def test_dedup_filter_survives_restart(self):
        before = DedupFilter(window=100.0)
        recs = [
            Recommendation(recipient=r, candidate=c, created_at=0.0)
            for r, c in [(1, 9), (2, 9), (3, 8)]
        ]
        for rec in recs:
            assert before.allow(rec, now=50.0)

        after = DedupFilter(window=100.0)
        after.load_state(before.state_arrays())
        # In-window pairs stay suppressed across the restart...
        for rec in recs:
            assert not after.allow(rec, now=120.0)
        # ...and expire on the same horizon the old filter would have used.
        assert after.allow(recs[0], now=151.0)
        assert after.last_sent_entries().keys() == before.last_sent_entries().keys()

    def test_fatigue_filter_survives_restart(self):
        before = FatigueFilter(max_per_window=2, window=100.0)
        rec = Recommendation(recipient=7, candidate=1, created_at=0.0)
        assert before.allow(rec, now=10.0)
        assert before.allow(rec, now=20.0)
        assert not before.allow(rec, now=30.0)

        after = FatigueFilter(max_per_window=2, window=100.0)
        after.load_state(before.state_arrays())
        assert after.sent_in_window(7, now=30.0) == 2
        # Budget still spent right after the restart, refreshed once the
        # earliest charge rolls out of the window.
        assert not after.allow(rec, now=40.0)
        assert after.allow(rec, now=115.0)

    def test_fatigue_snapshot_rejects_mismatched_cap(self):
        before = FatigueFilter(max_per_window=2, window=100.0)
        before.allow(Recommendation(recipient=1, candidate=1, created_at=0.0), 1.0)
        with pytest.raises(ValueError, match="shape"):
            FatigueFilter(max_per_window=3, window=100.0).load_state(
                before.state_arrays()
            )

    def test_state_arrays_are_owned_copies(self):
        """The snapshot store keeps the payload while the table moves on;
        later writes must not reach it."""
        table = Int64KeyTable(self.SPEC)
        slot, _ = table.upsert(11)
        table.columns["time"][slot] = 1.0
        payload = table.state_arrays()
        table.columns["time"][slot] = 99.0
        table.upsert(12)
        assert payload["keys"].tolist() == [11]
        assert payload["column_time"].tolist() == [1.0]

    def test_compacted_entries_stay_out_of_the_payload(self):
        table = Int64KeyTable(self.SPEC)
        keys = np.arange(1, 21, dtype=np.uint64)
        slots = table.insert(keys)
        table.columns["time"][slots] = keys.astype(np.float64)
        assert table.compact(table.columns["time"] > 10.0) == 10

        loaded = self.reloaded(table, self.SPEC)
        assert len(loaded) == 10
        found = loaded.lookup(keys)
        assert (found[:10] == -1).all()
        assert (loaded.columns["time"][found[10:]] == keys[10:]).all()

    def test_dtype_mismatch_rejected(self):
        table = Int64KeyTable({"time": (np.float64, 0)})
        table.upsert(5)
        with pytest.raises(ValueError, match="dtype"):
            self.reloaded(table, {"time": (np.int64, 0)})

    def test_dedup_restart_applies_the_restarted_window(self):
        """The payload holds send times, not the horizon: a tier restarted
        with a shorter window suppresses for that window only."""
        before = DedupFilter(window=100.0)
        rec = Recommendation(recipient=3, candidate=4, created_at=0.0)
        assert before.allow(rec, now=50.0)
        after = DedupFilter(window=10.0)
        after.load_state(before.state_arrays())
        assert not after.allow(rec, now=55.0)
        assert after.allow(rec, now=61.0)

    @settings(max_examples=40, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=12
            ),
            min_size=1,
            max_size=8,
        ),
        steps=st.lists(st.floats(0.0, 80.0, allow_nan=False), min_size=8, max_size=8),
        cut=st.integers(0, 8),
    )
    @pytest.mark.parametrize(
        "make_filter",
        [
            lambda: DedupFilter(window=100.0),
            lambda: FatigueFilter(max_per_window=2, window=100.0),
        ],
        ids=["dedup", "fatigue"],
    )
    def test_restart_mid_stream_matches_uninterrupted(
        self, make_filter, batches, steps, cut
    ):
        """A restart from the payload at any batch boundary makes exactly
        the decisions of a filter that never stopped."""
        uninterrupted, restarted = make_filter(), make_filter()
        now = 0.0
        for i, pairs in enumerate(batches):
            now += steps[i]
            if i == cut:
                fresh = make_filter()
                fresh.load_state(restarted.state_arrays())
                restarted = fresh
            want = uninterrupted.allow_mask(columns_of(pairs), now)
            got = restarted.allow_mask(columns_of(pairs), now)
            assert got.tolist() == want.tolist()
        assert restarted.state_arrays().keys() == uninterrupted.state_arrays().keys()
