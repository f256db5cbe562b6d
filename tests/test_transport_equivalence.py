"""Cross-transport equivalence: worker-process partitions must produce the
same recommendation multiset as the in-process simulation.

This is the transport layer's contract (docs/ARCHITECTURE.md): transports
change *where* partitions run, never *what* they compute.  Order may
differ across partitions (the gather is a concatenation in partition
order either way, but pipelined streams interleave), so equality is
asserted on the sorted multiset.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import (
    Cluster,
    ClusterConfig,
    InProcessTransport,
    WorkerTransport,
    shm_available,
)
from repro.cluster import shm
from repro.cluster.shm import sweep_stale_segments
from repro.core import DetectionParams
from repro.core.batch import EventBatch
from repro.core.recommendation import RecommendationBatch
from repro.delivery import (
    DeliveryPipeline,
    ShardedDeliveryPipeline,
    TopKPerUserBuffer,
)
from repro.gen import (
    StreamConfig,
    TwitterGraphConfig,
    generate_event_stream,
    generate_follow_graph,
)
from tests.test_batch_equivalence import (
    HUB_PARAMS,
    boxed_oracle,
    cluster_multiset,
    drive_flushes,
    hub_burst_stream,
)
from tests.test_delivery_sharded import _served

PARAMS = DetectionParams(k=2, tau=600.0)

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)

#: The worker transport, for the cases that run it on one lane only (a
#: subprocess, or in-worker serving arenas).  The equivalence and control
#: cases take the ``worker_transport`` fixture instead, which runs each on
#: the ring-fronted wire and on the queue-only wire of a host without
#: /dev/shm.
WORKER_TRANSPORTS = ["shm"]


def _multiset(recommendations):
    return sorted(
        (r.created_at, r.recipient, r.candidate, r.via)
        for r in recommendations
    )


@pytest.fixture(scope="module")
def workload():
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=1_500, mean_followings=12.0, seed=11)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=1_500, duration=150.0, background_rate=6.0, seed=11
        )
    )
    return snapshot, events


@pytest.fixture(scope="module")
def reference(workload):
    snapshot, events = workload
    cluster = Cluster.build(
        snapshot, PARAMS, ClusterConfig(num_partitions=3)
    )
    return _multiset(cluster.process_stream(events, batch_size=64))


class TestCrossTransportEquivalence:
    def test_worker_transport_matches_inprocess_batched(
        self, workload, reference, worker_transport
    ):
        snapshot, events = workload
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport=worker_transport),
        ) as cluster:
            got = _multiset(cluster.process_stream(events, batch_size=64))
        assert got == reference

    def test_worker_transport_matches_with_pipelining(
        self, workload, reference, worker_transport
    ):
        snapshot, events = workload
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport=worker_transport),
        ) as cluster:
            got = _multiset(
                cluster.process_stream(events, batch_size=64, pipeline_depth=4)
            )
        assert got == reference

    def test_worker_transport_matches_per_event_lane(
        self, workload, reference, worker_transport
    ):
        snapshot, events = workload
        short = events[:200]
        inproc = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        # The in-process side is the oracle, called by name.
        expected = _multiset(r for e in short for r in inproc.process_event(e))
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport=worker_transport),
        ) as cluster:
            got = _multiset(cluster.process_stream(short))
        assert got == expected

    def test_worker_transport_matches_with_replication(
        self, workload, worker_transport
    ):
        snapshot, events = workload
        short = events[:300]
        inproc = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, replication_factor=2),
        )
        expected = _multiset(inproc.process_stream(short, batch_size=32))
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(
                num_partitions=2, replication_factor=2, transport=worker_transport
            ),
        ) as cluster:
            got = _multiset(cluster.process_stream(short, batch_size=32))
        assert got == expected


@pytest.mark.parametrize("batch_size", [1, 16, 256])
@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("partitions", [1, 2, 3])
def test_worker_fleet_matches_oracle_with_one_d_per_worker(
    worker_transport, partitions, replicas, batch_size
):
    """Each worker's R replicas share the worker's one D (the paper's
    per-machine copy); a hub-burst stream through the fleet yields the
    boxed in-process oracle's candidates at every batch size."""
    snapshot, events = hub_burst_stream()
    with Cluster.build(
        snapshot,
        HUB_PARAMS,
        ClusterConfig(
            num_partitions=partitions,
            replication_factor=replicas,
            transport=worker_transport,
        ),
    ) as cluster:
        got = cluster_multiset(drive_flushes(cluster, events, batch_size))
        health = cluster.transport.health()
    assert got == boxed_oracle(partitions, replicas, batch_size)[0]
    assert len(health) == partitions
    for partition in health:
        # One D per worker: charged to exactly one replica, read by all.
        charged = [r.dynamic_memory_bytes > 0 for r in partition.replicas]
        assert charged == [True] + [False] * (replicas - 1)
        assert len({r.dynamic_edges for r in partition.replicas}) == 1


class TestTransportControlMessages:
    @pytest.fixture
    def clusters(self, worker_transport, workload):
        snapshot, events = workload
        inproc = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        proc = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport=worker_transport),
        )
        yield inproc, proc, events
        proc.close()

    def test_query_audience_matches(self, clusters, workload):
        snapshot, _ = workload
        inproc, proc, events = clusters
        short = events[:300]
        inproc.process_stream(short, batch_size=32)
        proc.process_stream(short, batch_size=32)
        target = snapshot.num_users - 1
        now = short[-1].created_at + 1.0
        assert proc.query_audience(target, now) == inproc.query_audience(
            target, now
        )

    def test_health_reports_worker_side_progress(self, clusters):
        inproc, proc, events = clusters
        short = events[:100]
        proc.process_stream(short, batch_size=32)
        health = proc.transport.health()
        assert len(health) == 2
        for partition in health:
            assert partition.worker_alive
            # Full D replication: every partition consumed every event.
            assert partition.replicas[0].events_processed == len(short)
        # The parent's (forked, stale) replica copies never advanced.
        assert proc.transport.local_replica_sets is None

    def test_prune_runs_in_workers(self, clusters):
        inproc, proc, events = clusters
        short = events[:200]
        inproc.process_stream(short, batch_size=32)
        proc.process_stream(short, batch_size=32)
        # The count is per distinct D: the two in-process partitions share
        # one copy, each of the two workers holds its own.
        in_process = inproc.prune(float("inf"))
        assert in_process == len(short)
        assert proc.prune(float("inf")) == 2 * in_process

    def test_memory_report_covers_worker_partitions(self, clusters):
        _inproc, proc, events = clusters
        proc.process_stream(events[:100], batch_size=32)
        report = proc.memory_report()
        assert report["static_index"] > 0
        assert report["dynamic_index"] > 0

    def test_replica_sets_unavailable_under_worker_transport(self, clusters):
        _inproc, proc, _events = clusters
        with pytest.raises(RuntimeError, match="not local"):
            proc.replica_sets

    def test_process_event_never_crosses_a_process_boundary(self, clusters):
        """The boxed per-event oracle is in-process only; under a worker
        transport it points at the batched entry point instead of pickling
        an event per partition."""
        _inproc, proc, events = clusters
        routed = proc.broker.stats.events_routed
        with pytest.raises(RuntimeError, match="replica sets are not local"):
            proc.broker.process_event(events[0])
        with pytest.raises(RuntimeError, match="process_batch"):
            proc.process_event(events[0])
        assert proc.broker.stats.events_routed == routed  # nothing was sent

    def test_close_is_idempotent(self, workload):
        snapshot, _ = workload
        cluster = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport="shm"),
        )
        assert isinstance(cluster.transport, WorkerTransport)
        cluster.close()
        cluster.close()

    def test_inprocess_transport_is_default(self, workload):
        snapshot, _ = workload
        cluster = Cluster.build(snapshot, PARAMS, ClusterConfig(num_partitions=2))
        assert isinstance(cluster.transport, InProcessTransport)
        assert cluster.transport.backlog() == 0
        cluster.close()  # no-op

    def test_config_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ClusterConfig(num_partitions=2, transport="carrier-pigeon")

    def test_config_rejects_the_retired_queue_wire_name(self):
        """``"process"`` named the queue-only wire; the host now picks the
        wire, and the refusal names the two transports there are."""
        with pytest.raises(ValueError, match="'inprocess', 'shm'"):
            ClusterConfig(num_partitions=2, transport="process")


class TestQueueOnlyHost:
    """A host without ``/dev/shm``: the one worker transport runs every
    message down its queues and still answers like the oracle."""

    @pytest.fixture(autouse=True)
    def no_shared_memory(self, monkeypatch):
        monkeypatch.setattr(shm, "shm_available", lambda: False)

    def test_cluster_matches_inprocess(self, workload, reference):
        snapshot, events = workload
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport="shm"),
        ) as cluster:
            got = _multiset(
                cluster.process_stream(events, batch_size=64, pipeline_depth=4)
            )
            stats = cluster.transport.wire_stats()
            assert cluster.transport._segment_names == []
        assert got == reference
        assert stats["frames_shm"] == 0
        assert stats["fallback_rate"] == 1.0

    def test_sharded_delivery_matches_inprocess(self, workload):
        snapshot, events = workload
        reference = DeliveryPipeline()
        expected = _ranked_loop(snapshot, events, "inprocess", reference, None)
        with ShardedDeliveryPipeline(2, transport="shm") as sharded:
            got = _ranked_loop(snapshot, events, "shm", sharded, None)
            stats = sharded.wire_stats()
            assert got == expected
            assert sharded.funnel_totals() == reference.funnel.stages
        assert stats["frames_shm"] == 0
        assert stats["frames_fallback"] > 0


def _ranked_loop(snapshot, events, transport, delivery, serving):
    """Detection on *transport* -> ranked flush -> *delivery* / *serving*:
    the full-stack flush loop, one ranking window per 64-event batch."""
    batch = EventBatch.from_events(events)
    ranker = TopKPerUserBuffer(k=2)
    delivered = []
    with Cluster.build(
        snapshot,
        PARAMS,
        ClusterConfig(num_partitions=2, transport=transport),
    ) as cluster:
        for start in range(0, len(batch), 64):
            window = batch.slice(start, min(start + 64, len(batch)))
            now = float(window.timestamps[-1])
            cluster.broker.submit_batch(window, now)
            grouped, _latency = cluster.broker.gather_batch()
            ranker.offer_batch(RecommendationBatch.concat_all(grouped))
            released = ranker.flush(now)
            if serving is not None:
                serving.ingest_released(released, now)
            delivered.extend(delivery.offer_all(released, now))
    return sorted(
        (n.recipient, n.recommendation.candidate, n.recommendation.created_at,
         n.recommendation.via)
        for n in delivered
    )


@pytest.mark.parametrize("transport", WORKER_TRANSPORTS)
@pytest.mark.parametrize("num_shards", [1, 2])
class TestRankedPathAcrossTransports:
    """Flat ranked winners over the worker wires == the in-process path:
    delivered multiset, funnel totals and served top-k."""

    def test_fleet_matches_inprocess_unsharded(
        self, workload, transport, num_shards
    ):
        from repro.serving import ServingCache, ServingCacheConfig

        snapshot, events = workload
        reference, served = DeliveryPipeline(), ServingCache(k=2)
        expected = _ranked_loop(snapshot, events, "inprocess", reference, served)
        assert expected, "workload must reach the ranked funnel"
        with ShardedDeliveryPipeline(
            num_shards, transport=transport, serving=ServingCacheConfig(k=2)
        ) as sharded:
            got = _ranked_loop(snapshot, events, transport, sharded, None)
            assert got == expected
            assert sharded.funnel_totals() == reference.funnel.stages
            assert _served(sharded.serving.state_arrays()) == _served(
                served.state_arrays()
            )


@needs_shm
class TestSharedMemoryWire:
    """shm-transport specifics: fallback, death reclamation, stats."""

    def test_flat_winner_overflow_keeps_ranked_path_exact(
        self, workload, monkeypatch
    ):
        from repro.serving import ServingCacheConfig

        snapshot, events = workload
        reference = DeliveryPipeline()
        expected = _ranked_loop(snapshot, events, "inprocess", reference, None)
        # 256-byte slots: flat-winner frames overflow onto the pickle lane.
        monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", 256)
        with ShardedDeliveryPipeline(
            2, transport="shm", serving=ServingCacheConfig(k=2)
        ) as sharded:
            got = _ranked_loop(snapshot, events, "shm", sharded, None)
            assert got == expected
            assert sharded.funnel_totals() == reference.funnel.stages
            assert sharded.wire_stats()["frames_fallback"] > 0

    def test_slot_overflow_falls_back_to_pickle(
        self, workload, reference, monkeypatch
    ):
        snapshot, events = workload
        # 256-byte slots: no event-batch frame fits, so every batch rides
        # the pickle-fallback lane — same answers, counted.
        monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", 256)
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport="shm"),
        ) as cluster:
            got = _multiset(cluster.process_stream(events, batch_size=64))
            stats = cluster.transport.wire_stats()
        assert got == reference
        assert stats["frames_fallback"] > 0
        assert stats["fallback_rate"] > 0.0

    def test_wire_stats_count_shm_frames(self, workload):
        snapshot, events = workload
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport="shm"),
        ) as cluster:
            cluster.process_stream(events[:300], batch_size=32)
            stats = cluster.transport.wire_stats()
        assert isinstance(cluster.transport, WorkerTransport)
        assert stats["frames_shm"] > 0
        assert stats["frames_fallback"] == 0
        assert stats["fallback_rate"] == 0.0
        assert stats["slab_occupancy"] == 0  # every submit was gathered

    def test_worker_death_mid_pipeline_reclaims_segments(self, workload):
        import os

        snapshot, events = workload
        cluster = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=3, transport="shm"),
        )
        transport = cluster.transport
        names = list(transport._segment_names)
        assert names and all(
            os.path.exists(f"/dev/shm/{name}") for name in names
        )
        cluster.broker.submit_batch(EventBatch.from_events(events[:20]))
        cluster.broker.submit_batch(EventBatch.from_events(events[20:40]))
        victim = transport._workers[0]
        victim.process.terminate()
        victim.process.join(timeout=5.0)
        cluster.broker.gather_batch()
        cluster.broker.gather_batch()
        # The victim is charged only what it missed; survivors keep serving.
        assert cluster.broker.stats.partitions_lost_events in (0, 20, 40)
        replies, _ = cluster.broker.process_batch(
            EventBatch.from_events(events[40:50])
        )
        assert len(replies) == transport.workers_alive() == 2
        cluster.close()
        leaked = [
            name for name in names if os.path.exists(f"/dev/shm/{name}")
        ]
        assert leaked == []

    def test_pipelining_bounded_by_ring_capacity(self, workload, monkeypatch):
        snapshot, events = workload
        monkeypatch.setattr(shm, "DEFAULT_SLOTS", 2)
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport="shm"),
        ) as cluster:
            transport = cluster.transport
            batch = EventBatch.from_events(events[:5])
            transport.submit_batch(batch)
            transport.submit_batch(batch)
            with pytest.raises(ValueError, match="ring capacity"):
                transport.submit_batch(batch)
            transport.gather_batch()
            transport.gather_batch()


class TestPipelinedSubmitGather:
    def test_inprocess_supports_stacked_submits(self, workload, reference):
        snapshot, events = workload
        cluster = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=3)
        )
        got = _multiset(
            cluster.process_stream(events, batch_size=64, pipeline_depth=3)
        )
        assert got == reference

    def test_gather_without_submit_rejected(self, workload):
        snapshot, _ = workload
        cluster = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=1)
        )
        with pytest.raises(ValueError, match="gather without a submit"):
            cluster.broker.gather_batch()

    def test_worker_transport_tracks_pending_gathers(self, workload):
        snapshot, events = workload
        with Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport="shm"),
        ) as cluster:
            batch = EventBatch.from_events(events[:10])
            cluster.broker.submit_batch(batch)
            cluster.broker.submit_batch(batch)
            assert cluster.transport.pending_gathers == 2
            with pytest.raises(ValueError, match="no outstanding"):
                cluster.transport.health()
            cluster.broker.gather_batch()
            cluster.broker.gather_batch()
            assert cluster.transport.pending_gathers == 0
            assert len(cluster.transport.health()) == 2


#: Builds a worker fleet on both tiers, prints the worker pids, then idles.
_FLEET_SCRIPT = """
import sys, time
from repro.cluster import Cluster, ClusterConfig
from repro.delivery import ShardedDeliveryPipeline
from repro.gen import TwitterGraphConfig, generate_follow_graph

snapshot = generate_follow_graph(TwitterGraphConfig(num_users=200, seed=1))
cluster = Cluster.build(
    snapshot, config=ClusterConfig(num_partitions=2, transport=sys.argv[1])
)
sharded = ShardedDeliveryPipeline(2, transport=sys.argv[1])
workers = cluster.transport._workers + sharded._workers
print(*(worker.process.pid for worker in workers), flush=True)
time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether *pid* is still executing (an unreaped zombie is not)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc to watch pids"
)
@pytest.mark.parametrize("transport", WORKER_TRANSPORTS)
def test_workers_exit_when_parent_is_sigkilled(transport):
    """kill -9 the parent alone: every worker notices and exits by itself.

    Daemon flags don't help here — SIGKILL runs no cleanup in the parent —
    so each worker's wire must notice the dead peer on its own wait.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    parent = subprocess.Popen(
        [sys.executable, "-c", _FLEET_SCRIPT, transport],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    pids: list[int] = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 4 and all(_running(pid) for pid in pids)
        parent.kill()  # the parent only, not its process group
        parent.wait(timeout=30)
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if _running(pid)] == []
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=30)
        parent.stdout.close()
        for pid in pids:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        sweep_stale_segments()  # the killed parent's rings
