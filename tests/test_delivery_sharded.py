"""Sharded delivery equivalence: recipient-hash shards must deliver the
same multiset (and summed funnel counts) as one unsharded funnel.

Sharding is semantics-preserving because every stateful funnel stage is
recipient-keyed; these tests enforce it for both transports, across
shard counts, and across repeated windows (stateful dedup/fatigue carry
over between offers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.recommendation import (
    FlatRecommendations,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.cluster import shm, shm_available
from repro.delivery import (
    DedupFilter,
    DeliveryPipeline,
    FatigueFilter,
    ShardedDeliveryPipeline,
    TopKPerUserBuffer,
    WakingHoursFilter,
    split_batch_by_shard,
)
from repro.serving import ServingCache, ServingCacheConfig
from repro.util.hashing import splitmix64

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)

#: The worker-hosted shard transport.  The fault-tolerance tests take the
#: ``worker_transport`` fixture instead, which runs each on the ring-fronted
#: wire and on the queue-only wire of a host without /dev/shm.
WORKER_TRANSPORTS = ["shm"]


def _production_trio(_shard: int) -> DeliveryPipeline:
    return DeliveryPipeline(
        filters=[DedupFilter(), WakingHoursFilter(), FatigueFilter()]
    )


def _random_batches(seed: int, windows: int = 3) -> list[RecommendationBatch]:
    rng = np.random.default_rng(seed)
    batches = []
    for w in range(windows):
        groups = []
        for t in range(25):
            n = int(rng.integers(1, 40))
            groups.append(
                RecommendationGroup(
                    rng.integers(0, 60, n).astype(np.int64),
                    candidate=int(rng.integers(100, 112)),
                    created_at=float(w * 1000 + t),
                    via=tuple(rng.integers(0, 50, 3).tolist()),
                )
            )
        batches.append(RecommendationBatch(groups))
    return batches


def _pairs(notifications):
    return sorted(
        (n.recipient, n.recommendation.candidate, n.delivered_at)
        for n in notifications
    )


class TestSplitBatchByShard:
    def test_partition_is_exhaustive_and_hash_stable(self):
        batches = _random_batches(seed=1, windows=1)
        shards = split_batch_by_shard(batches[0], 4)
        assert sum(len(s) for s in shards) == len(batches[0])
        for shard_id, shard_batch in enumerate(shards):
            for rec in shard_batch:
                assert splitmix64(rec.recipient) % 4 == shard_id

    def test_single_shard_reuses_groups(self):
        batch = _random_batches(seed=2, windows=1)[0]
        [only] = split_batch_by_shard(batch, 1)
        assert only.groups == batch.groups

    def test_metadata_shared_not_copied(self):
        group = RecommendationGroup(
            np.arange(64, dtype=np.int64), candidate=7, created_at=1.0,
            via=(1, 2, 3),
        )
        shards = split_batch_by_shard(RecommendationBatch([group]), 2)
        for shard_batch in shards:
            for g in shard_batch.groups:
                assert g.candidate == 7
                assert g.via == (1, 2, 3)
                assert g.created_at == 1.0


    def test_flat_winners_split_by_one_stable_partition(self):
        ranker = TopKPerUserBuffer(k=2)
        ranker.offer_batch(_random_batches(seed=2, windows=1)[0])
        flat = ranker.flush(now=30.0)
        shards = split_batch_by_shard(flat, 3)
        assert sum(len(s) for s in shards) == len(flat)
        for shard_id, shard in enumerate(shards):
            assert all(s.sources is flat.sources for s in shards)
            # Hash-stable, and rank order survives within each shard.
            expected = [
                r for r in flat if splitmix64(r.recipient) % 3 == shard_id
            ]
            assert list(shard) == expected
        [only] = split_batch_by_shard(flat, 1)
        assert only is flat


ALL_TRANSPORTS = ["inprocess", pytest.param("shm", marks=needs_shm)]


def _served(state: dict[str, np.ndarray]) -> list[tuple]:
    """``state_arrays()`` in slot-order-free form: per user, the live
    (candidate, score, created_at, witnesses) entries in rank order."""
    rows = []
    for i in np.argsort(state["users"], kind="stable").tolist():
        live = int(state["count"][i])
        rows.append(
            (
                int(state["users"][i]),
                state["candidate"][i, :live].tolist(),
                state["score"][i, :live].tolist(),
                state["created_at"][i, :live].tolist(),
                state["witnesses"][i, :live].tolist(),
            )
        )
    return rows


def _run_ranked_windows(sharded, seed: int):
    """Ranked windows through *sharded* (columnar flush -> offer_all) and
    through the boxed unsharded lane; returns (got, expected, reference
    funnel, reference serving cache)."""
    reference = _production_trio(0)
    served = ServingCache(k=2)
    got, expected = [], []
    for w, batch in enumerate(_random_batches(seed=seed)):
        now = 1_000.0 * w + 43_200.0
        columnar, boxed = TopKPerUserBuffer(k=2), TopKPerUserBuffer(k=2)
        columnar.offer_batch(batch)
        for rec in batch:
            boxed.offer(rec)
        released = columnar.flush(now)
        assert isinstance(released, FlatRecommendations)
        got.extend(sharded.offer_all(released, now))
        winners = list(boxed.flush(now))
        served.ingest_released(winners, now)
        for rec in winners:
            pushed = reference.offer(rec, now)
            if pushed is not None:
                expected.append(pushed)
    return got, expected, reference, served


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
@pytest.mark.parametrize("num_shards", [1, 2])
class TestFlatWinnersSharded:
    """Ranked flush -> sharded funnel with in-shard serving, no re-boxing:
    same deliveries, funnel counts and served rows as the boxed lane."""

    def test_matches_boxed_unsharded_lane(self, transport, num_shards):
        with ShardedDeliveryPipeline(
            num_shards,
            pipeline_factory=_production_trio,
            transport=transport,
            serving=ServingCacheConfig(k=2, capacity=16),
        ) as sharded:
            got, expected, reference, served = _run_ranked_windows(sharded, 5)
            assert _pairs(got) == _pairs(expected)
            assert sorted(n.recommendation.via for n in got) == sorted(
                n.recommendation.via for n in expected
            )
            assert sharded.funnel_totals() == reference.funnel.stages
            assert _served(sharded.serving.state_arrays()) == _served(
                served.state_arrays()
            )
            assert sharded.serving.rows_ingested == served.rows_ingested


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
@pytest.mark.parametrize("num_shards", [1, 3, 8])
class TestShardedEquivalence:
    def test_multiset_and_funnel_match_unsharded(self, transport, num_shards):
        reference = _production_trio(0)
        sharded = ShardedDeliveryPipeline(
            num_shards, pipeline_factory=_production_trio, transport=transport
        )
        try:
            expected, got = [], []
            for w, batch in enumerate(_random_batches(seed=3)):
                now = 1_000.0 * w + 43_200.0  # midday: waking hours vary by tz
                expected.extend(reference.offer_batch(batch, now))
                got.extend(sharded.offer_batch(batch, now))
            assert _pairs(got) == _pairs(expected)
            assert sharded.funnel_totals() == reference.funnel.stages
            assert sharded.delivered_total() == reference.notifier.delivered_total
            assert sharded.reduction_ratio() == pytest.approx(
                reference.reduction_ratio()
            )
        finally:
            sharded.close()


class TestShardedScalarOffers:
    """A lone candidate is a one-row batch: the sharded funnel has no
    boxed ``offer`` (that entry point stays on the in-process
    ``DeliveryPipeline``, the reference)."""

    def test_offer_routes_to_owning_shard_state(self):
        sharded = ShardedDeliveryPipeline(
            4, pipeline_factory=lambda _s: DeliveryPipeline(filters=[DedupFilter()])
        )
        assert not hasattr(sharded, "offer")
        rec = FlatRecommendations.from_boxed(
            [Recommendation(recipient=5, candidate=9, created_at=0.0)]
        )
        assert len(sharded.offer_batch(rec, now=0.0)) == 1
        # Same pair inside the window: the owning shard remembers it.
        assert sharded.offer_batch(rec, now=10.0) == []
        assert sharded.funnel_totals()["dropped:dedup"] == 1

    def test_worker_transport_scalar_offer(self, worker_transport):
        with ShardedDeliveryPipeline(
            2,
            pipeline_factory=lambda _s: DeliveryPipeline(filters=[DedupFilter()]),
            transport=worker_transport,
        ) as sharded:
            rec = FlatRecommendations.from_boxed(
                [Recommendation(recipient=5, candidate=9, created_at=0.0)]
            )
            delivered = sharded.offer_batch(rec, now=0.0)
            assert [n.recipient for n in delivered] == [5]
            assert sharded.offer_batch(rec, now=10.0) == []

    def test_offer_all_matches_offer_batch(self):
        batch = _random_batches(seed=4, windows=1)[0]
        via_batch = ShardedDeliveryPipeline(3, pipeline_factory=_production_trio)
        via_boxed = ShardedDeliveryPipeline(3, pipeline_factory=_production_trio)
        now = 43_200.0
        a = via_batch.offer_batch(batch, now)
        b = via_boxed.offer_all(list(batch), now)
        assert _pairs(a) == _pairs(b)
        assert via_batch.funnel_totals() == via_boxed.funnel_totals()


class TestShardedFaultTolerance:
    def test_dead_shard_worker_loses_only_its_recipients(self, worker_transport):
        sharded = ShardedDeliveryPipeline(
            2,
            pipeline_factory=lambda _s: DeliveryPipeline(filters=[]),
            transport=worker_transport,
        )
        try:
            victim = sharded._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            batch = _random_batches(seed=5, windows=1)[0]
            shards = split_batch_by_shard(batch, 2)
            delivered = sharded.offer_batch(batch, now=0.0)
            # Shard 1's recipients all delivered (no filters); shard 0 lost.
            assert len(delivered) == len(shards[1])
            assert sharded.notifications_lost_shards == len(shards[0])
            for notification in delivered:
                assert splitmix64(notification.recipient) % 2 == 1
        finally:
            sharded.close()

    def test_dead_shard_history_stays_in_aggregates(self, worker_transport):
        sharded = ShardedDeliveryPipeline(
            2,
            pipeline_factory=lambda _s: DeliveryPipeline(filters=[]),
            transport=worker_transport,
        )
        try:
            batch = _random_batches(seed=6, windows=1)[0]
            delivered_before = len(sharded.offer_batch(batch, now=0.0))
            assert sharded.delivered_total() == delivered_before
            victim = sharded._workers[0]
            victim.process.terminate()
            victim.process.join(timeout=5.0)
            # The dead shard's accumulated counts must not vanish from the
            # aggregates — they are served from the last reply's cache.
            assert sharded.delivered_total() == delivered_before
            assert sharded.funnel_totals().get("delivered") == delivered_before
        finally:
            sharded.close()

    def test_close_is_idempotent(self, worker_transport):
        sharded = ShardedDeliveryPipeline(2, transport=worker_transport)
        sharded.close()
        sharded.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedDeliveryPipeline(0)
        with pytest.raises(ValueError):
            ShardedDeliveryPipeline(2, transport="smoke-signals")


@needs_shm
class TestShardedShmWire:
    """shm-shard specifics: overflow fallback, telemetry, reclamation."""

    def test_slot_overflow_falls_back_to_pickle(self, monkeypatch):
        reference = _production_trio(0)
        # 256-byte slots: recommendation/notification frames overflow and
        # ride the pickle lane — same multiset, counted fallback.
        monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", 256)
        sharded = ShardedDeliveryPipeline(
            3, pipeline_factory=_production_trio, transport="shm"
        )
        try:
            expected, got = [], []
            for w, batch in enumerate(_random_batches(seed=7)):
                now = 1_000.0 * w + 43_200.0
                expected.extend(reference.offer_batch(batch, now))
                got.extend(sharded.offer_batch(batch, now))
            assert _pairs(got) == _pairs(expected)
            stats = sharded.wire_stats()
            assert stats["frames_fallback"] > 0
            assert stats["fallback_rate"] > 0.0
        finally:
            sharded.close()

    def test_flat_winner_frame_overflow_takes_pickle_fallback(
        self, monkeypatch
    ):
        monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", 256)  # all overflow
        with ShardedDeliveryPipeline(
            2,
            pipeline_factory=_production_trio,
            transport="shm",
            serving=ServingCacheConfig(k=2, capacity=16),
        ) as sharded:
            got, expected, reference, served = _run_ranked_windows(sharded, 6)
            assert _pairs(got) == _pairs(expected)
            assert sharded.funnel_totals() == reference.funnel.stages
            assert _served(sharded.serving.state_arrays()) == _served(
                served.state_arrays()
            )
            # 3 windows x 2 shards x 2 directions: every request and every
            # notification reply overflowed and rode the pickle lane.
            stats = sharded.wire_stats()
            assert stats["frames_fallback"] == 12
            assert stats["frames_shm"] == 0

    def test_wire_stats_and_segment_reclamation(self):
        import os

        sharded = ShardedDeliveryPipeline(
            2, pipeline_factory=_production_trio, transport="shm"
        )
        names = list(sharded._segment_names)
        assert names and all(
            os.path.exists(f"/dev/shm/{name}") for name in names
        )
        batch = _random_batches(seed=8, windows=1)[0]
        sharded.offer_batch(batch, now=43_200.0)
        stats = sharded.wire_stats()
        assert stats["frames_shm"] > 0
        assert stats["frames_fallback"] == 0
        sharded.close()
        leaked = [
            name for name in names if os.path.exists(f"/dev/shm/{name}")
        ]
        assert leaked == []

    def test_serving_arena_segments_reclaimed_with_wire(self):
        import glob
        import os

        from repro.serving import ServingCacheConfig

        sharded = ShardedDeliveryPipeline(
            2,
            pipeline_factory=_production_trio,
            transport="shm",
            # Tiny capacity: the workers grow their tables, creating data
            # generations the parent never held a handle to.
            serving=ServingCacheConfig(k=2, capacity=8),
        )
        controls = [s.control_name for s in sharded.serving.specs]
        assert all(name in sharded._segment_names for name in controls)
        batch = _random_batches(seed=9, windows=1)[0]
        sharded.offer_batch(batch, now=43_200.0)
        # Replies gate on the worker's ingest, so the contents are there.
        assert sharded.serving.users_cached > 0
        sharded.close()
        leaked = [
            path
            for name in controls
            for path in glob.glob(f"/dev/shm/{name}*")
            if os.path.exists(path)
        ]
        assert leaked == []


# ----------------------------------------------------------------------
# Topology level: the cache writer lives where the funnel lives
# ----------------------------------------------------------------------

def _dedup_funnel(_shard: int) -> DeliveryPipeline:
    return DeliveryPipeline(filters=[DedupFilter()])


class TestServingPlacementIsDerived:
    """``StreamingTopology`` has no placement option: it reads
    ``delivery.serving`` when the delivery shards own their caches and
    taps ``serving=`` in front of a single funnel otherwise — and the two
    end in the same deliveries and the same served rows."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.gen import (
            StreamConfig,
            TwitterGraphConfig,
            generate_event_stream,
            generate_follow_graph,
        )

        snapshot = generate_follow_graph(
            TwitterGraphConfig(num_users=500, mean_followings=10.0, seed=19)
        )
        events = generate_event_stream(
            StreamConfig(
                num_users=500, duration=60.0, background_rate=4.0, seed=19
            )
        )
        return snapshot, events

    @pytest.fixture(autouse=True)
    def frozen_detection_clock(self, monkeypatch):
        """The consumer maps *measured* detection wall-clock into virtual
        time; pin it to zero so flush times — and with them every score —
        are a function of the stream alone."""
        from types import SimpleNamespace

        from repro.streaming import consumer

        monkeypatch.setattr(
            consumer, "time", SimpleNamespace(perf_counter=lambda: 0.0)
        )

    def _run(self, workload, delivery, serving=None):
        from repro.cluster import Cluster, ClusterConfig
        from repro.core import DetectionParams
        from repro.sim.latency import FixedDelay
        from repro.streaming import StreamingTopology
        from repro.topology import TopologyConfig

        snapshot, events = workload
        cluster = Cluster.build(
            snapshot,
            DetectionParams(k=2, tau=600.0),
            ClusterConfig(num_partitions=2),
        )
        try:
            topology = StreamingTopology(
                cluster,
                delivery=delivery,
                hop_models={
                    name: FixedDelay(0.5)
                    for name in ("firehose", "fanout", "push")
                },
                serving=serving,
                config=TopologyConfig(
                    batch_size=8, delivery_batch_size=32, ranked_k=2
                ),
            )
            report = topology.run(list(events))
        finally:
            cluster.close()
        delivered = sorted(
            (
                n.recipient,
                n.recommendation.candidate,
                n.recommendation.created_at,
            )
            for n in report.notifications
        )
        return delivered, topology

    @pytest.mark.parametrize(
        "transport", ["inprocess", pytest.param("shm", marks=needs_shm)]
    )
    def test_shard_owned_caches_match_single_funnel_parent_cache(
        self, workload, transport
    ):
        parent_cache = ServingCache(k=2)
        expected, parent = self._run(workload, _dedup_funnel(0), parent_cache)
        assert parent.serving is parent_cache
        assert expected and parent_cache.users_cached > 0
        with ShardedDeliveryPipeline(
            2,
            pipeline_factory=_dedup_funnel,
            transport=transport,
            serving=ServingCacheConfig(k=2),
        ) as sharded:
            got, topology = self._run(workload, sharded)
            assert topology.serving is sharded.serving
            assert got == expected
            assert _served(sharded.serving.state_arrays()) == _served(
                parent_cache.state_arrays()
            )
            # The shards were the only writers: a coalescer that tapped
            # as well would have merged every row twice.
            assert sharded.serving.rows_ingested == parent_cache.rows_ingested

    def test_tapping_a_cache_on_top_of_shard_owned_ones_is_rejected(
        self, workload
    ):
        with ShardedDeliveryPipeline(
            2, pipeline_factory=_dedup_funnel, serving=ServingCacheConfig(k=2)
        ) as sharded:
            with pytest.raises(ValueError, match="write every row twice"):
                self._run(workload, sharded, serving=ServingCache(k=2))


@pytest.mark.parametrize("transport", WORKER_TRANSPORTS + ["inprocess"])
def test_stage_state_carries_dedup_and_fatigue_into_fresh_shards(transport):
    """A sharded funnel's stage state — read from in-process shards or
    asked of worker shards — loaded into fresh in-process shards decides
    the next windows exactly as the uninterrupted funnel does."""
    batches = _random_batches(seed=9, windows=4)

    def now(w: int) -> float:
        return 1_000.0 * w + 43_200.0

    uninterrupted = ShardedDeliveryPipeline(2, pipeline_factory=_production_trio)
    expected = [
        _pairs(uninterrupted.offer_batch(batch, now(w)))
        for w, batch in enumerate(batches)
    ]
    with ShardedDeliveryPipeline(
        2, pipeline_factory=_production_trio, transport=transport
    ) as live:
        for w, batch in enumerate(batches[:2]):
            live.offer_batch(batch, now(w))
        state = live.stage_state()
        if transport != "inprocess":
            with pytest.raises(ValueError, match="in-process"):
                live.load_stage_state(state)
    assert sorted(state) == [
        f"shard{shard}.filter_{stage}"
        for shard in (0, 1)
        for stage in ("dedup", "fatigue")
    ]
    restored = ShardedDeliveryPipeline(2, pipeline_factory=_production_trio)
    restored.load_stage_state(state)
    fresh = ShardedDeliveryPipeline(2, pipeline_factory=_production_trio)
    later = list(enumerate(batches))[2:]
    assert [_pairs(restored.offer_batch(b, now(w))) for w, b in later] == expected[2:]
    # Not vacuous: without the state the same windows deliver more.
    assert [_pairs(fresh.offer_batch(b, now(w))) for w, b in later] != expected[2:]
