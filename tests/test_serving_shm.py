"""In-worker serving over shared memory: cross-process contracts.

Four guarantees, each load-bearing for the worker serving mode:

* attach-by-spec readers see exactly the writer's contents across table
  growth (generation handoff), and keep working after the writer exits
  gracefully (pinned mappings survive the unlink);
* a reader *process* hammering point queries while the writer *process*
  merges and grows never observes a torn row — the cross-process flavor
  of the seqlock test in ``test_serving_cache.py``, with the same
  sentinel invariant;
* worker mode is observably identical to parent-side serving: the
  delivered multiset and the final serving contents match the inprocess
  reference exactly, on every transport;
* no /dev/shm segment outlives ``close()`` — including the data
  generations of a shard worker killed with SIGKILL, which never runs
  its own cleanup.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.cluster import shm_available
from repro.cluster.shm import sweep_segments
from repro.core.recommendation import RecommendationBatch, RecommendationGroup
from repro.delivery import DedupFilter, DeliveryPipeline, ShardedDeliveryPipeline
from repro.serving import (
    ServingCache,
    ServingCacheConfig,
    ServingCacheReader,
    ShardedServingCache,
    create_serving_arena,
)
from repro.util.procpool import default_start_method

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)

#: Transports that host shard workers in real processes.
WORKER_TRANSPORTS = ["shm"]


def _segment_files(prefix: str) -> list[str]:
    """Every /dev/shm entry belonging to *prefix* (control + generations)."""
    return sorted(
        glob.glob(f"/dev/shm/{prefix}") + glob.glob(f"/dev/shm/{prefix}_g*")
    )


def _update(cache, rows):
    cache.update_columns(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int64),
        np.array([r[2] for r in rows], dtype=np.float64),
        np.array([r[3] for r in rows], dtype=np.float64),
    )


def _plain_pipeline(_shard: int) -> DeliveryPipeline:
    return DeliveryPipeline(filters=[])


def _dedup_pipeline(_shard: int) -> DeliveryPipeline:
    return DeliveryPipeline(filters=[DedupFilter()])


def _windows(seed: int, count: int = 4) -> list[RecommendationBatch]:
    rng = np.random.default_rng(seed)
    batches = []
    for w in range(count):
        groups = []
        for t in range(12):
            n = int(rng.integers(1, 30))
            groups.append(
                RecommendationGroup(
                    rng.integers(0, 120, n).astype(np.int64),
                    candidate=int(rng.integers(100, 115)),
                    created_at=float(w * 100 + t),
                    via=tuple(rng.integers(0, 50, 2).tolist()),
                )
            )
        batches.append(RecommendationBatch(groups))
    return batches


def _delivered_pairs(notifications):
    return sorted(
        (n.recipient, n.recommendation.candidate, n.recommendation.created_at)
        for n in notifications
    )


class TestArenaWriterReaderHandoff:
    def test_reader_tracks_writer_across_growth(self):
        spec = create_serving_arena(k=2, capacity=8)
        writer = ServingCache.attach_writer(spec)
        reader = ServingCacheReader(spec)
        try:
            for round_no in range(6):
                _update(
                    writer,
                    [
                        (u, u + 1000, float(u % 7), float(round_no))
                        for u in range(round_no * 50, round_no * 50 + 50)
                    ],
                )
                assert reader.dump() == writer.dump()
                assert reader.users_cached == writer.users_cached
            # 300 users from capacity 8: several doublings, each one a
            # fresh data generation the reader re-attached.
            assert reader.generation > 1
            assert reader.attaches > 1
            stats = reader.writer_stats()
            assert stats["updates"] == float(writer.updates)
            assert stats["rows_ingested"] == float(writer.rows_ingested)
        finally:
            final = writer.dump()
            reader.pin()  # keep the last generation mapped past the unlink
            writer.close()
            # Post-shutdown reads (CLI summaries, snapshots) still work.
            assert reader.dump() == final
            reader.reclaim_segments()
            reader.close()
            sweep_segments([spec.control_name])
        assert _segment_files(spec.control_name) == []

    def test_reader_before_first_generation_misses_cleanly(self):
        spec = create_serving_arena(k=2, capacity=8)
        reader = ServingCacheReader(spec)
        try:
            assert reader.get_recommendations(1) == []
            assert reader.users_cached == 0
            assert reader.dump() == {}
        finally:
            reader.close()
            sweep_segments([spec.control_name])

    def test_state_arrays_round_trip_into_heap_cache(self):
        spec = create_serving_arena(k=2, capacity=8)
        writer = ServingCache.attach_writer(spec)
        reader = ServingCacheReader(spec)
        try:
            _update(writer, [(u, u % 9, float(u % 5), 3.0) for u in range(70)])
            restored = ServingCache(k=2)
            restored.load_state(reader.state_arrays())
            assert restored.dump() == writer.dump()
        finally:
            reader.close()
            writer.close()
            sweep_segments([spec.control_name])


# ----------------------------------------------------------------------
# Cross-process seqlock: writer process vs reader process
# ----------------------------------------------------------------------

#: Same sentinel invariant as the threaded test: a torn row (candidate
#: from one publish, score/created_at from another) is detectable from
#: the returned values alone.
_SCORE_FACTOR = 0.5
_CREATED_FACTOR = 2.0


def _torn_read_writer(spec, stop, failed):
    """Child: merge rounds that preserve the invariant, forcing growth."""
    writer = ServingCache.attach_writer(spec)
    try:
        rng = np.random.default_rng(13)
        round_no = 0
        while not stop.is_set():
            users = rng.integers(0, 400, size=64).astype(np.int64)
            candidates = ((users * 3 + round_no) % 1000).astype(np.int64)
            writer.update_columns(
                users,
                candidates,
                candidates * _SCORE_FACTOR,
                candidates * _CREATED_FACTOR,
            )
            round_no += 1
    except BaseException:
        failed.set()
        raise
    finally:
        writer.close()


class TestCrossProcessSeqlock:
    def test_reader_process_never_observes_torn_rows(self):
        spec = create_serving_arena(k=2, capacity=16)  # small: grows live
        context = multiprocessing.get_context(default_start_method())
        stop, failed = context.Event(), context.Event()
        child = context.Process(
            target=_torn_read_writer, args=(spec, stop, failed)
        )
        child.start()
        reader = ServingCacheReader(spec)
        try:
            deadline = time.monotonic() + 10.0
            while reader.generation == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert reader.generation > 0, "writer never materialized a table"
            rng = np.random.default_rng(7)
            rows_seen = 0
            for _ in range(6_000):
                user = int(rng.integers(0, 400))
                for rec in reader.get_recommendations(user):
                    assert rec.score == rec.candidate * _SCORE_FACTOR
                    assert rec.created_at == rec.candidate * _CREATED_FACTOR
                    rows_seen += 1
            assert rows_seen > 0
            # Growth happened under the reader: 400 users never fit the
            # initial 16 slots.
            assert reader.generation > 1
        finally:
            reader.pin()
            stop.set()
            child.join(timeout=10.0)
        assert child.exitcode == 0
        assert not failed.is_set()
        reader.reclaim_segments()
        reader.close()
        sweep_segments([spec.control_name])
        assert _segment_files(spec.control_name) == []


# ----------------------------------------------------------------------
# Worker mode == parent-side serving, observably
# ----------------------------------------------------------------------

@pytest.mark.parametrize("transport", WORKER_TRANSPORTS)
@pytest.mark.parametrize("num_shards", [1, 2])
class TestWorkerModeEquivalence:
    def test_delivered_and_served_match_inprocess_reference(
        self, transport, num_shards
    ):
        serving = ServingCacheConfig(k=2)
        reference = ShardedDeliveryPipeline(
            num_shards,
            pipeline_factory=_dedup_pipeline,
            transport="inprocess",
            serving=serving,
        )
        workers = ShardedDeliveryPipeline(
            num_shards,
            pipeline_factory=_dedup_pipeline,
            transport=transport,
            serving=serving,
        )
        control_names = [s.control_name for s in workers.serving.specs]
        try:
            expected, got = [], []
            for w, batch in enumerate(_windows(seed=21)):
                now = 50_000.0 + 1_000.0 * w
                expected.extend(reference.offer_batch(batch, now))
                got.extend(workers.offer_batch(batch, now))
            assert _delivered_pairs(got) == _delivered_pairs(expected)
            # The shard workers' arenas hold exactly what the parent-side
            # caches hold — scores, created_at, and ranking included.
            assert workers.serving.dump() == reference.serving.dump()
            assert workers.serving.users_cached == reference.serving.users_cached
        finally:
            workers.close()
            reference.close()
        for name in control_names:
            assert _segment_files(name) == []

    def test_scalar_offers_reach_the_worker_cache(self, transport, num_shards):
        from repro.core.recommendation import (
            FlatRecommendations,
            Recommendation,
        )

        workers = ShardedDeliveryPipeline(
            num_shards,
            pipeline_factory=_plain_pipeline,
            transport=transport,
            serving=ServingCacheConfig(k=2),
        )
        try:
            rec = Recommendation(
                recipient=77, candidate=4, created_at=1.0, via=(9, 11)
            )
            assert workers.offer_batch(
                FlatRecommendations.from_boxed([rec]), now=2.0
            )
            deadline = time.monotonic() + 10.0
            while (
                not workers.serving.get_recommendations(77)
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            row = workers.serving.get_recommendations(77)
            assert [r.candidate for r in row] == [4]
        finally:
            workers.close()

    def test_worker_snapshot_restores_into_heap_shards(
        self, transport, num_shards
    ):
        serving = ServingCacheConfig(k=2)
        workers = ShardedDeliveryPipeline(
            num_shards,
            pipeline_factory=_plain_pipeline,
            transport=transport,
            serving=serving,
        )
        try:
            for w, batch in enumerate(_windows(seed=22, count=2)):
                workers.offer_batch(batch, now=50_000.0 + 1_000.0 * w)
            payload = workers.serving.state_arrays()
            restored = ShardedServingCache(num_shards=num_shards, k=2)
            restored.load_state(payload)
            assert restored.dump() == workers.serving.dump()
        finally:
            workers.close()


# ----------------------------------------------------------------------
# Reclamation: nothing survives close(), even after kill -9
# ----------------------------------------------------------------------

class TestServingSegmentReclamation:
    @pytest.mark.parametrize("transport", WORKER_TRANSPORTS)
    def test_sigkilled_worker_leaks_no_serving_segments(self, transport):
        # Tiny capacity: every window forces growth, so the dead worker
        # leaves multiple data generations for the parent to reclaim.
        workers = ShardedDeliveryPipeline(
            2,
            pipeline_factory=_plain_pipeline,
            transport=transport,
            serving=ServingCacheConfig(k=2, capacity=8),
        )
        control_names = [s.control_name for s in workers.serving.specs]
        try:
            batches = _windows(seed=23, count=3)
            workers.offer_batch(batches[0], now=50_000.0)
            victim = workers._workers[0]
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=10.0)
            assert _segment_files(control_names[0]), (
                "the SIGKILLed worker should have left segments behind "
                "for close() to reclaim"
            )
            # The surviving shard keeps serving and ingesting.
            for w, batch in enumerate(batches[1:], start=1):
                workers.offer_batch(batch, now=50_000.0 + 1_000.0 * w)
        finally:
            workers.close()
        for name in control_names:
            assert _segment_files(name) == []

    def test_graceful_close_leaks_nothing(self):
        workers = ShardedDeliveryPipeline(
            2,
            pipeline_factory=_plain_pipeline,
            transport="shm",
            serving=ServingCacheConfig(k=2, capacity=8),
        )
        control_names = [s.control_name for s in workers.serving.specs]
        workers.offer_batch(_windows(seed=24, count=1)[0], now=50_000.0)
        summary = workers.serving.users_cached
        workers.close()
        assert summary > 0
        for name in control_names:
            assert _segment_files(name) == []
