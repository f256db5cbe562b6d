"""Unit + property + concurrency tests for the serving-tier read cache.

Three layers of guarantee, the backing-sensitive ones (merge fold, TTL,
read-time re-decay, the seqlock contract) over both backings — the
``new_cache`` fixture builds heap caches, and each ``...Arena`` subclass
reruns its base class over a shm-arena writer read through an attached
``ServingCacheReader`` (test ids stay what they were for the heap runs):

* unit tests pin the merge semantics (replace-in-place, latest-wins
  dedup, top-k cut, growth) and the ingest adapters the delivery taps
  call;
* a Hypothesis property replays arbitrary update sequences against a
  dict-of-dicts reference fold and demands identical final contents;
* a threaded writer/reader test enforces the seqlock contract — every
  observed row is internally consistent (no torn reads) while the
  writer inserts, updates, and grows the table under the readers.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import shm_available
from repro.cluster.shm import sweep_segments
from repro.core import ActionType, EdgeEvent, Recommendation
from repro.core.recommendation import RecommendationBatch, RecommendationGroup
from repro.delivery.scoring import decayed_scores
from repro.serving import (
    ServedRecommendation,
    ServingCache,
    ServingCacheReader,
    ShardedServingCache,
    create_serving_arena,
)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)


class ArenaPair:
    """An arena-backed writer plus an attached reader, in one process.

    Stands in for a ``ServingCache`` in a test body: everything a reader
    can ask goes through the attached ``ServingCacheReader`` (the path a
    parent process takes), the rest — merges, sweeps, ``_header`` — to
    the writer.
    """

    READS = frozenset(
        "get_recommendations dump state_arrays users_cached hits misses "
        "hit_rate updates evictions".split()
    )

    def __init__(self, spec):
        self.writer = ServingCache.attach_writer(spec)
        self.reader = ServingCacheReader(spec)

    def __getattr__(self, name):
        return getattr(self.reader if name in self.READS else self.writer, name)

    def close(self):
        self.reader.close()
        self.writer.close()


@contextlib.contextmanager
def arena_caches():
    """A ``ServingCache``-shaped factory over the arena backing; every
    segment it made is gone on exit, whatever the test did."""
    specs, pairs = [], []

    def build(**shape):
        specs.append(create_serving_arena(**shape))
        pairs.append(ArenaPair(specs[-1]))  # may raise: shape validation
        return pairs[-1]

    try:
        yield build
    finally:
        for pair in pairs:
            pair.close()
        sweep_segments([spec.control_name for spec in specs])


@pytest.fixture
def new_cache():
    """Builds the cache under test: heap here, arena in ``ArenaBacked``."""
    return ServingCache


class ArenaBacked:
    """Mixin: rerun a test class with ``new_cache`` on the arena backing."""

    pytestmark = needs_shm

    @pytest.fixture
    def new_cache(self):
        with arena_caches() as build:
            yield build


def reading_side(cache):
    """The object whose ``_view()`` the cache's reads go through."""
    return getattr(cache, "reader", cache)


def update(cache, rows):
    """Apply ``[(user, candidate, score, created_at), ...]`` as one merge."""
    cache.update_columns(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.float64),
        np.array([r[3] for r in rows], dtype=np.float64),
    )


class TestMergeSemantics:
    def test_single_update_ranks_by_score_then_candidate(self):
        cache = ServingCache(k=2)
        update(cache, [(1, 10, 1.0, 0.0), (1, 11, 3.0, 0.0), (1, 12, 2.0, 0.0)])
        assert cache.get_recommendations(1) == [
            ServedRecommendation(11, 3.0, 0.0),
            ServedRecommendation(12, 2.0, 0.0),
        ]

    def test_score_tie_breaks_by_candidate_ascending(self):
        cache = ServingCache(k=2)
        update(cache, [(1, 12, 1.0, 0.0), (1, 10, 1.0, 0.0), (1, 11, 1.0, 0.0)])
        assert [r.candidate for r in cache.get_recommendations(1)] == [10, 11]

    def test_same_candidate_replaces_in_place(self):
        cache = ServingCache(k=2)
        update(cache, [(1, 10, 3.0, 0.0), (1, 11, 2.0, 0.0)])
        update(cache, [(1, 10, 1.0, 5.0)])  # refresh demotes candidate 10
        assert cache.get_recommendations(1) == [
            ServedRecommendation(11, 2.0, 0.0),
            ServedRecommendation(10, 1.0, 5.0),
        ]

    def test_duplicate_rows_in_one_update_latest_wins(self):
        cache = ServingCache(k=2)
        # Positional order decides, not score: the later row replaces the
        # earlier one even though it scores lower.
        update(cache, [(1, 10, 9.0, 0.0), (1, 10, 1.0, 1.0)])
        assert cache.get_recommendations(1) == [ServedRecommendation(10, 1.0, 1.0)]

    def test_entries_below_cut_are_forgotten(self):
        cache = ServingCache(k=2)
        update(cache, [(1, 10, 1.0, 0.0), (1, 11, 2.0, 0.0)])
        update(cache, [(1, 12, 5.0, 1.0), (1, 13, 4.0, 1.0)])
        assert [r.candidate for r in cache.get_recommendations(1)] == [12, 13]
        # Candidate 11 fell off; demoting the newcomers cannot revive it.
        update(cache, [(1, 12, 0.5, 2.0), (1, 13, 0.4, 2.0)])
        assert [r.candidate for r in cache.get_recommendations(1)] == [12, 13]

    def test_untouched_users_unchanged(self):
        cache = ServingCache(k=2)
        update(cache, [(1, 10, 1.0, 0.0), (2, 20, 2.0, 0.0)])
        update(cache, [(2, 21, 3.0, 1.0)])
        assert cache.get_recommendations(1) == [ServedRecommendation(10, 1.0, 0.0)]
        assert [r.candidate for r in cache.get_recommendations(2)] == [21, 20]

    def test_read_k_caps_row_length(self):
        cache = ServingCache(k=3)
        update(cache, [(1, 10, 3.0, 0.0), (1, 11, 2.0, 0.0), (1, 12, 1.0, 0.0)])
        assert len(cache.get_recommendations(1, k=2)) == 2
        assert len(cache.get_recommendations(1, k=99)) == 3

    def test_miss_and_hit_rate(self):
        cache = ServingCache(k=2)
        assert cache.get_recommendations(5) == []
        update(cache, [(5, 10, 1.0, 0.0)])
        assert cache.get_recommendations(5) != []
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_empty_update_is_a_no_op(self):
        cache = ServingCache(k=2)
        cache.update_columns(
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty(0, np.float64), np.empty(0, np.float64),
        )
        assert cache.users_cached == 0 and cache.updates == 0

    def test_growth_past_initial_capacity(self):
        cache = ServingCache(k=2, capacity=8)
        update(cache, [(u, u + 1000, float(u), 0.0) for u in range(500)])
        assert cache.users_cached == 500
        for u in (0, 250, 499):
            assert cache.get_recommendations(u) == [
                ServedRecommendation(u + 1000, float(u), 0.0)
            ]

    def test_dump_round_trips_contents(self):
        cache = ServingCache(k=2)
        update(cache, [(1, 10, 1.0, 0.0), (2, 20, 2.0, 3.0)])
        assert cache.dump() == {
            1: [ServedRecommendation(10, 1.0, 0.0)],
            2: [ServedRecommendation(20, 2.0, 3.0)],
        }

    def test_bytes_per_user_positive_and_bounded(self):
        cache = ServingCache(k=2, capacity=64)
        update(cache, [(u, 1, 1.0, 0.0) for u in range(30)])
        assert cache.nbytes() > 0
        assert cache.bytes_per_user() == pytest.approx(cache.nbytes() / 30)


class TestIngestAdapters:
    def test_ingest_released_scores_by_witnesses_and_freshness(self):
        cache = ServingCache(k=2, half_life=100.0)
        recs = [
            Recommendation(recipient=1, candidate=7, created_at=0.0, via=(3, 4)),
            Recommendation(recipient=1, candidate=8, created_at=0.0, via=(3,)),
        ]
        cache.ingest_released(recs, now=100.0)
        expected = decayed_scores(
            np.array([2, 1], dtype=np.int64),
            np.array([0.0, 0.0]),
            100.0,
            100.0,
        )
        served = cache.get_recommendations(1)
        assert [r.candidate for r in served] == [7, 8]
        assert [r.score for r in served] == pytest.approx(expected.tolist())

    def test_ingest_batch_matches_released_equivalent(self):
        via = (31, 32, 33)
        recipients = np.array([1, 2, 5], dtype=np.int64)
        batch = RecommendationBatch(
            [RecommendationGroup(recipients, candidate=9, created_at=2.0, via=via)]
        )
        boxed = [
            Recommendation(recipient=int(r), candidate=9, created_at=2.0, via=via)
            for r in recipients
        ]
        columnar, reference = ServingCache(k=2), ServingCache(k=2)
        columnar.ingest_batch(batch, now=10.0)
        reference.ingest_released(boxed, now=10.0)
        assert columnar.dump() == reference.dump()


class TestShardedServingCache:
    def test_routing_matches_unsharded_contents(self):
        rows = [(u, u % 7, float(u % 5), float(u % 3)) for u in range(200)]
        flat, sharded = ServingCache(k=2), ShardedServingCache(num_shards=4, k=2)
        update(flat, rows)
        update(sharded, rows)
        assert sharded.dump() == flat.dump()
        for u in range(200):
            assert sharded.get_recommendations(u) == flat.get_recommendations(u)

    def test_each_user_lives_on_exactly_one_shard(self):
        sharded = ShardedServingCache(num_shards=3, k=2)
        update(sharded, [(u, 1, 1.0, 0.0) for u in range(100)])
        assert sum(s.users_cached for s in sharded.shards) == 100
        assert sharded.users_cached == 100

    def test_aggregate_stats_sum_over_shards(self):
        sharded = ShardedServingCache(num_shards=2, k=2)
        update(sharded, [(1, 10, 1.0, 0.0)])
        sharded.get_recommendations(1)
        sharded.get_recommendations(999_999)
        assert sharded.hits == 1 and sharded.misses == 1
        assert sharded.hit_rate == 0.5
        assert sharded.nbytes() == sum(s.nbytes() for s in sharded.shards)

    def test_ingest_released_splits_by_recipient_hash(self):
        sharded = ShardedServingCache(num_shards=4, k=2)
        recs = [
            Recommendation(recipient=u, candidate=3, created_at=0.0, via=(9,))
            for u in range(50)
        ]
        sharded.ingest_released(recs, now=1.0)
        flat = ServingCache(k=2)
        flat.ingest_released(recs, now=1.0)
        assert sharded.dump() == flat.dump()

    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            ShardedServingCache(num_shards=0)


class TestTTLEviction:
    @staticmethod
    def _reference_evict(dump, now, ttl):
        """The spec: filter-then-rebuild on the user's *newest* entry."""
        return {
            user: rows
            for user, rows in dump.items()
            if rows and max(r.created_at for r in rows) >= now - ttl
        }

    def test_evict_dormant_matches_filter_then_rebuild(self, new_cache):
        rng = np.random.default_rng(3)
        cache = new_cache(k=2, ttl=100.0)
        update(
            cache,
            [
                (u, int(rng.integers(0, 20)), float(rng.integers(1, 9)),
                 float(rng.integers(0, 300)))
                for u in range(120)
                for _ in range(int(rng.integers(1, 4)))
            ],
        )
        before = cache.dump()
        now = 250.0
        dropped = cache.evict_dormant(now)
        expected = self._reference_evict(before, now, 100.0)
        assert cache.dump() == expected
        assert dropped == len(before) - len(expected)
        assert dropped > 0  # created_at spans [0, 300): some are dormant
        assert cache.evictions == dropped

    def test_newest_entry_governs_dormancy(self, new_cache):
        cache = new_cache(k=2, ttl=100.0)
        # One stale entry plus one fresh entry: the user stays, whole row
        # intact — dormancy is per user, not per entry.
        update(cache, [(1, 10, 2.0, 0.0), (1, 11, 1.0, 190.0)])
        update(cache, [(2, 20, 1.0, 0.0)])
        assert cache.evict_dormant(now=200.0) == 1
        assert sorted(cache.dump()) == [1]
        assert len(cache.dump()[1]) == 2

    def test_evicted_user_is_a_miss_then_reinsertable(self, new_cache):
        cache = new_cache(k=2, ttl=50.0)
        update(cache, [(1, 10, 1.0, 0.0)])
        cache.evict_dormant(now=100.0)
        assert cache.get_recommendations(1) == []
        update(cache, [(1, 12, 3.0, 100.0)])
        assert [r.candidate for r in cache.get_recommendations(1)] == [12]

    def test_grow_path_reclaims_dormant_slots_before_doubling(self, new_cache):
        cache = new_cache(k=2, capacity=8, ttl=100.0)  # load cap: 4
        cache.update_columns(
            np.arange(4, dtype=np.int64),
            np.full(4, 7, np.int64),
            np.ones(4),
            np.zeros(4),
            now=0.0,
        )
        bytes_before = cache.nbytes()
        # Four more users at now=1000: reserve() must rebuild — and the
        # lazy keep hook vacates the four dormant users first, so the
        # survivors fit without the capacity doubling.
        cache.update_columns(
            np.arange(100, 104, dtype=np.int64),
            np.full(4, 8, np.int64),
            np.ones(4),
            np.full(4, 1_000.0),
            now=1_000.0,
        )
        assert cache.evictions == 4
        assert sorted(cache.dump()) == [100, 101, 102, 103]
        assert cache.nbytes() == bytes_before

    def test_evict_without_ttl_is_a_noop(self, new_cache):
        cache = new_cache(k=2)
        update(cache, [(1, 10, 1.0, 0.0)])
        assert cache.evict_dormant(now=1e9) == 0
        assert cache.users_cached == 1

    def test_sharded_eviction_sums_shards(self):
        sharded = ShardedServingCache(num_shards=3, k=2, ttl=10.0)
        update(sharded, [(u, 1, 1.0, 0.0) for u in range(30)])
        update(sharded, [(u, 1, 1.0, 100.0) for u in range(30, 40)])
        assert sharded.evict_dormant(now=100.0) == 30
        assert sharded.evictions == 30
        assert sharded.users_cached == 10

    def test_ttl_validated(self, new_cache):
        with pytest.raises(ValueError):
            new_cache(k=2, ttl=0.0)


class TestTTLEvictionArena(ArenaBacked, TestTTLEviction):
    pass


class TestReadTimeRedecay:
    def test_scores_bitwise_match_shared_kernel(self, new_cache):
        cache = new_cache(k=2, half_life=300.0)
        rec = Recommendation(recipient=1, candidate=7, created_at=10.0, via=(1, 2, 3))
        cache.ingest_released([rec], now=20.0)
        later = 500.0
        [served] = cache.get_recommendations(1, now=later)
        expected = decayed_scores(
            np.array([3], dtype=np.int64), np.array([10.0]), later, 300.0
        )[0]
        assert served.score == expected  # bitwise: same kernel, same inputs
        assert served.candidate == 7 and served.created_at == 10.0

    def test_redecay_corrects_cross_refresh_staleness(self, new_cache):
        # Two entries whose *stored* scores were frozen at different
        # refresh times: A's stale score still ranks it first, but at any
        # common now the fresher B wins — re-decay must flip the order.
        cache = new_cache(k=2, half_life=300.0)
        cache.update_columns(
            np.array([1, 1], dtype=np.int64),
            np.array([10, 11], dtype=np.int64),
            np.array([5.0, 4.0]),          # stale-high A, fresh B
            np.array([0.0, 900.0]),
            witnesses=np.array([5, 4], dtype=np.int64),
        )
        assert [r.candidate for r in cache.get_recommendations(1)] == [10, 11]
        served = cache.get_recommendations(1, now=1_000.0)
        assert [r.candidate for r in served] == [11, 10]
        expected = decayed_scores(
            np.array([4, 5], dtype=np.int64),
            np.array([900.0, 0.0]),
            1_000.0,
            300.0,
        )
        assert [r.score for r in served] == expected.tolist()

    def test_unwitnessed_entries_redecay_as_one_witness(self, new_cache):
        # update_columns without a witnesses column stores 1 per entry —
        # the same clamp floor the kernel applies — so re-decay of rows
        # that never carried corroboration is still well-defined.
        cache = new_cache(k=2, half_life=100.0)
        update(cache, [(1, 10, 99.0, 50.0)])
        [served] = cache.get_recommendations(1, now=150.0)
        expected = decayed_scores(
            np.array([1], dtype=np.int64), np.array([50.0]), 150.0, 100.0
        )[0]
        assert served.score == expected

    def test_read_k_still_caps_after_rerank(self, new_cache):
        cache = new_cache(k=3, half_life=300.0)
        update(cache, [(1, 10, 3.0, 0.0), (1, 11, 2.0, 0.0), (1, 12, 1.0, 0.0)])
        assert len(cache.get_recommendations(1, k=2, now=10.0)) == 2

    def test_now_is_optional_and_preserves_stored_scores(self, new_cache):
        cache = new_cache(k=2)
        update(cache, [(1, 10, 3.5, 0.0)])
        assert cache.get_recommendations(1) == [ServedRecommendation(10, 3.5, 0.0)]


class TestReadTimeRedecayArena(ArenaBacked, TestReadTimeRedecay):
    pass


class TestWitnessPersistence:
    def test_state_round_trip_preserves_redecay(self):
        source = ServingCache(k=2, half_life=300.0)
        recs = [
            Recommendation(recipient=u, candidate=u % 5, created_at=float(u),
                           via=tuple(range(1 + u % 4)))
            for u in range(40)
        ]
        source.ingest_released(recs, now=50.0)
        restored = ServingCache(k=2, half_life=300.0)
        restored.load_state(source.state_arrays())
        assert restored.dump() == source.dump()
        for u in range(40):
            assert restored.get_recommendations(
                u, now=500.0
            ) == source.get_recommendations(u, now=500.0)

    def test_legacy_payload_without_witnesses_defaults_to_one(self):
        source = ServingCache(k=2, half_life=300.0)
        source.ingest_released(
            [Recommendation(recipient=1, candidate=7, created_at=0.0, via=(1, 2, 3))],
            now=10.0,
        )
        payload = source.state_arrays()
        del payload["witnesses"]  # pre-witness-column snapshot
        restored = ServingCache(k=2, half_life=300.0)
        restored.load_state(payload)
        [served] = restored.get_recommendations(1, now=100.0)
        expected = decayed_scores(
            np.array([1], dtype=np.int64), np.array([0.0]), 100.0, 300.0
        )[0]
        assert served.score == expected


# ----------------------------------------------------------------------
# Property: update_columns == a dict-of-dicts reference fold
# ----------------------------------------------------------------------

ROW = st.tuples(
    st.integers(0, 7),                       # user
    st.integers(0, 7),                       # candidate
    st.integers(0, 10).map(float),           # score (integral: no fp ties)
    st.integers(0, 10).map(float),           # created_at
)


def reference_fold(updates, k):
    """The spec: per update, merge touched users and keep their top-k."""
    state: dict[int, dict[int, tuple[float, float]]] = {}
    for rows in updates:
        touched: dict[int, dict[int, tuple[float, float]]] = {}
        for user, candidate, score, created in rows:
            merged = touched.setdefault(user, dict(state.get(user, {})))
            merged[candidate] = (score, created)  # later rows replace earlier
        for user, merged in touched.items():
            ranked = sorted(merged.items(), key=lambda kv: (-kv[1][0], kv[0]))
            state[user] = dict(ranked[:k])
    return {
        user: [
            ServedRecommendation(c, s, t)
            for c, (s, t) in sorted(entries.items(), key=lambda kv: (-kv[1][0], kv[0]))
        ]
        for user, entries in state.items()
        if entries
    }


UPDATES = st.lists(st.lists(ROW, min_size=1, max_size=12), max_size=8)


def fold_matches_reference(new_cache, updates):
    cache = new_cache(k=2, capacity=8)
    for rows in updates:
        update(cache, rows)
    assert cache.dump() == reference_fold(updates, k=2)


@settings(max_examples=200, deadline=None)
@given(updates=UPDATES)
def test_update_columns_matches_reference_fold(updates):
    fold_matches_reference(ServingCache, updates)


@needs_shm
@settings(max_examples=100, deadline=None)
@given(updates=UPDATES)
def test_update_columns_matches_reference_fold_over_arena(updates):
    with arena_caches() as new_cache:
        fold_matches_reference(new_cache, updates)


# ----------------------------------------------------------------------
# Concurrency: no torn reads while the writer merges and grows
# ----------------------------------------------------------------------

class TestSeqlockUnderConcurrency:
    #: Sentinel invariant every write maintains: any consistent row obeys
    #: score == candidate * 0.5 and created_at == candidate * 2.0, so a
    #: torn read (candidate from one publish, score from another) is
    #: detectable from the returned values alone.
    SCORE_FACTOR = 0.5
    CREATED_FACTOR = 2.0

    def test_readers_never_observe_torn_rows(self, new_cache):
        num_users = 400
        cache = new_cache(k=2, capacity=16)  # small: grows under load
        stop = threading.Event()
        writer_error: list[BaseException] = []

        def writer():
            rng = np.random.default_rng(7)
            round_no = 0
            try:
                while not stop.is_set():
                    users = rng.integers(0, num_users, size=64)
                    candidates = (users * 3 + round_no) % 1000
                    update_rows = (
                        users.astype(np.int64),
                        candidates.astype(np.int64),
                        candidates * self.SCORE_FACTOR,
                        candidates * self.CREATED_FACTOR,
                    )
                    cache.update_columns(*update_rows)
                    round_no += 1
            except BaseException as error:
                writer_error.append(error)

        thread = threading.Thread(target=writer, name="serving-writer")
        thread.start()
        try:
            rng = np.random.default_rng(11)
            for _ in range(4_000):
                user = int(rng.integers(0, num_users))
                for rec in cache.get_recommendations(user):
                    assert rec.score == rec.candidate * self.SCORE_FACTOR
                    assert rec.created_at == rec.candidate * self.CREATED_FACTOR
        finally:
            stop.set()
            thread.join()
        assert not writer_error, f"writer failed: {writer_error[0]!r}"
        assert cache.users_cached > 0

    def test_wedged_writer_raises_instead_of_spinning_forever(self, new_cache):
        cache = new_cache(k=2)
        cache._header[0] = 1  # simulate a writer that died mid-rebuild
        with pytest.raises(RuntimeError, match="did not stabilize"):
            cache.get_recommendations(1)
        with pytest.raises(RuntimeError, match="did not stabilize"):
            cache.state_arrays()

    def test_read_never_mixes_one_generation_with_anothers_capacity(
        self, new_cache, monkeypatch
    ):
        """A point read takes its probe mask and every array from the one
        published view it picked up — so a view of capacity C is answered
        (consistently, from that view) or rejected even though the table
        has moved on to 2C, and the other way round.

        The parent commit's heap reader did not: ``Int64KeyTable.find``
        read ``_capacity`` and ``_keys``/``_filled`` separately, and
        ``_allocate`` stores the new ``_capacity`` before the new arrays,
        so a probe issued inside that window masked with 2C - 1 into the
        C-slot arrays and ``IndexError: index 14 is out of bounds for
        axis 0 with size 8`` escaped ``get_recommendations`` (the retry
        loop only knows stamps).  The arena reader never could; now both
        are the same reader.
        """
        grown, fresh = new_cache(k=2, capacity=16), new_cache(k=2, capacity=16)
        few = [(u, u + 100, float(u), 0.0) for u in range(8)]
        update(grown, few)
        small = reading_side(grown)._view()
        served_small = grown.dump()
        update(grown, [(u, u + 100, float(u), 0.0) for u in range(8, 300)])
        big = reading_side(grown)._view()
        served_big = grown.dump()
        assert len(small["keys"]) == 16 and len(big["keys"]) >= 32

        # Table at 2C+, reader handed the view of C — and the mirror:
        # table still at C, reader handed a view of 2C+.
        for cache, view, served in (
            (grown, small, served_small),
            (fresh, big, served_big),
        ):
            monkeypatch.setattr(reading_side(cache), "_view", lambda v=view: v)
            for user in range(300):
                assert cache.get_recommendations(user) == served.get(user, [])


class TestSeqlockUnderConcurrencyArena(ArenaBacked, TestSeqlockUnderConcurrency):
    pass


# ----------------------------------------------------------------------
# The delivery-side taps feed the cache
# ----------------------------------------------------------------------

class TestDeliveryTaps:
    def _candidate_batch(self, recipients, candidate, created_at=0.0):
        from repro.streaming.consumer import CandidateBatch

        origin = EdgeEvent(created_at, 100, candidate, ActionType.FOLLOW)
        recommendations = RecommendationBatch(
            [
                RecommendationGroup(
                    np.array(recipients, dtype=np.int64),
                    candidate=candidate,
                    created_at=created_at,
                    via=(50,),
                )
            ]
        )
        return CandidateBatch(origin, recommendations, detection_seconds=0.0)

    def test_coalescer_inline_tap_mirrors_notifications(self):
        from repro.delivery import DeliveryPipeline, PushNotifier
        from repro.sim.des import DiscreteEventSimulator
        from repro.sim.metrics import LatencyBreakdown
        from repro.streaming.consumer import DeliveryCoalescer

        cache = ServingCache(k=2)
        notifications = []
        coalescer = DeliveryCoalescer(
            DiscreteEventSimulator(),
            DeliveryPipeline(filters=[], notifier=PushNotifier()),
            LatencyBreakdown(),
            notifications,
            batch_size=1,
            serving=cache,
        )
        coalescer(self._candidate_batch([1, 2], candidate=9), 0.0, 1.0)
        assert {n.recipient for n in notifications} == {1, 2}
        dump = cache.dump()
        assert {u: [r.candidate for r in row] for u, row in dump.items()} == {
            1: [9], 2: [9],
        }
        assert all(row[0].created_at == 0.0 for row in dump.values())

    def test_coalescer_flush_tap_mirrors_notifications(self):
        from repro.delivery import DeliveryPipeline, PushNotifier
        from repro.sim.des import DiscreteEventSimulator
        from repro.sim.metrics import LatencyBreakdown
        from repro.streaming.consumer import DeliveryCoalescer

        cache = ServingCache(k=2)
        sim = DiscreteEventSimulator()
        notifications = []
        coalescer = DeliveryCoalescer(
            sim,
            DeliveryPipeline(filters=[], notifier=PushNotifier()),
            LatencyBreakdown(),
            notifications,
            batch_size=3,
            serving=cache,
        )
        coalescer(self._candidate_batch([1, 2], candidate=7), 0.0, 1.0)
        assert cache.users_cached == 0  # nothing flushed yet
        coalescer(self._candidate_batch([5], candidate=8), 0.0, 2.0)
        assert coalescer.pending_batches == 0
        assert {(n.recipient, n.recommendation.candidate) for n in notifications} == {
            (1, 7), (2, 7), (5, 8),
        }
        dump = cache.dump()
        assert {u: [r.candidate for r in row] for u, row in dump.items()} == {
            1: [7], 2: [7], 5: [8],
        }
