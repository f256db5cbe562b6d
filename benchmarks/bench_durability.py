"""E22 — durability tax and replay-to-now recovery speed (extension).

The durable tier exists so a crashed deployment can rebuild its exact
delivered state, but it rides the hot ingest path to do it: every flush
batch is CRC-framed into the WAL before the cluster sees it, and
periodic incremental snapshots checkpoint every state arena.  This
experiment prices that insurance and the payout:

* **wal_overhead_ratio** — wall clock of the identical batched
  ingest+delivery loop with WAL logging and periodic snapshots, over the
  same loop with durability off.  The acceptance bar is **< 1.5x**: the
  log is a userspace-buffered sequential append, so the tax must stay
  a fraction of the detection work it protects.
* **recovery_seconds_per_million_events** — full cold replay (snapshot
  ignored) through the cluster's normal batched ingest, normalized per
  million WAL events.
* **snapshot_delta_ratio** — bytes the second-and-later incremental
  snapshots actually write, over the bytes a full checkpoint would copy;
  the append-only arenas (event log, delivered ledger) should make
  deltas a small fraction of state size.

Recovery is also checked for *correctness* here, not just speed: the
replayed deployment's delivered triple multiset must equal the live WAL
run's exactly (the crash suite proves the SIGKILL cases; this bench
pins the uninterrupted one at scale).
"""

from __future__ import annotations

import shutil
import time

import numpy as np
import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams, EdgeEvent
from repro.core.batch import EventBatch
from repro.core.recommendation import RecommendationBatch
from repro.delivery.dedup import DedupFilter
from repro.delivery.pipeline import DeliveryPipeline
from repro.durability import DurabilityManager, prepare_root, recover
from repro.gen import TwitterGraphConfig, generate_follow_graph
from repro.topology import TopologyConfig
from repro.util.rng import derive_seed

K = 2
TAU = 600.0
PARTITIONS = 2

#: The acceptance bar: logged ingest within this factor of unlogged.
MAX_WAL_OVERHEAD = 1.5

SCALES = {
    # CI-sized: same shape, small enough for the bench-smoke job.
    "smoke": dict(
        num_users=3_000,
        mean_followings=10.0,
        num_batches=500,
        batch_size=8,
        snapshot_every=125,
    ),
    "full": dict(
        num_users=20_000,
        mean_followings=12.0,
        num_batches=2_500,
        batch_size=16,
        snapshot_every=500,
    ),
}


def build_batches(params, seed):
    """Deterministic flush batches: one EventBatch per consumer flush."""
    rng = np.random.default_rng(derive_seed(seed, "bench-durability"))
    batches = []
    clock = 0.0
    hot = max(2, params["num_users"] // 10)
    for _ in range(params["num_batches"]):
        events = []
        for _ in range(params["batch_size"]):
            clock += 0.01
            events.append(
                EdgeEvent(
                    clock,
                    int(rng.integers(0, params["num_users"])),
                    # Skew targets toward a hot set so diamonds do close
                    # and the delivery funnel sees real traffic.
                    int(rng.integers(0, hot)),
                )
            )
        batches.append((EventBatch.from_events(events), clock))
    return batches


def run_ingest(cluster, batches, durability=None, snapshot_every=0):
    """The topology's flush loop, minus the DES: ingest + deliver.

    With *durability*, every batch is WAL-logged first and a snapshot is
    taken every *snapshot_every* batches — the live tier's exact write
    path.  Returns (busy wall seconds, delivered triples, notifications).
    """
    delivery = DeliveryPipeline(filters=[DedupFilter()])
    notifications = []
    started = time.perf_counter()
    for i, (batch, now) in enumerate(batches):
        if durability is not None:
            durability.log_batch(batch, now)
        replies, _latency = cluster.broker.process_batch(batch, now=now)
        merged = RecommendationBatch.concat_all(replies)
        if len(merged):
            notifications.extend(delivery.offer_batch(merged, now))
        if durability is not None and snapshot_every and (
            (i + 1) % snapshot_every == 0
        ):
            durability.snapshot(
                now, delivery=delivery, notifications=notifications
            )
    elapsed = time.perf_counter() - started
    triples = sorted(
        (n.recommendation.recipient, n.recommendation.candidate,
         n.recommendation.created_at)
        for n in notifications
    )
    return elapsed, triples, notifications


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_durability_overhead_and_recovery(scale, report, tmp_path):
    params = SCALES[scale]
    seed = 22
    snapshot = generate_follow_graph(
        TwitterGraphConfig(
            num_users=params["num_users"],
            mean_followings=params["mean_followings"],
            seed=seed,
        )
    )
    detection = DetectionParams(k=K, tau=TAU)
    config = ClusterConfig(num_partitions=PARTITIONS)
    batches = build_batches(params, seed)
    total_events = params["num_batches"] * params["batch_size"]

    # -- baseline: the same loop with durability off --------------------
    with Cluster.build(snapshot, detection, config) as cluster:
        plain_seconds, plain_triples, _ = run_ingest(cluster, batches)

    # -- logged run: WAL tap on every batch + periodic snapshots --------
    root = tmp_path / "root"
    prepare_root(
        root, snapshot, TopologyConfig(detection=detection, cluster=config)
    )
    with Cluster.build(snapshot, detection, config) as cluster:
        durability = DurabilityManager(root, cluster, gc_segments=False)
        with durability:
            wal_seconds, wal_triples, _ = run_ingest(
                cluster,
                batches,
                durability=durability,
                snapshot_every=params["snapshot_every"],
            )
        stats = durability.stats()

    # Durability must be pure overhead, never a behavior change.
    assert wal_triples == plain_triples

    # -- cold recovery: full WAL replay through the normal ingest -------
    recovery_started = time.perf_counter()
    result = recover(root, use_snapshot=False)
    try:
        recovery_seconds = time.perf_counter() - recovery_started
        assert result.replayed_events == total_events
        recovered = sorted(t[:3] for t in result.delivered)
        assert recovered == wal_triples
    finally:
        result.close()

    overhead = wal_seconds / max(plain_seconds, 1e-9)
    per_million = recovery_seconds * 1e6 / total_events
    delta_ratio = stats["snapshot_delta_bytes"] / max(
        stats["snapshot_full_bytes"], 1.0
    )
    wal_bytes_per_event = stats["wal_bytes"] / total_events

    table = report.table(
        "E22",
        f"durability tax and recovery ({scale}: "
        f"{params['num_users']:,} users, {total_events:,} events)",
        ["run", "wall", "events/s", "delivered"],
    )
    table.add_row(
        "ingest (no WAL)", f"{plain_seconds:.2f} s",
        f"{total_events / plain_seconds:,.0f}", f"{len(plain_triples):,}",
    )
    table.add_row(
        "ingest + WAL + snapshots", f"{wal_seconds:.2f} s",
        f"{total_events / wal_seconds:,.0f}", f"{len(wal_triples):,}",
    )
    table.add_row(
        "cold recovery (replay)", f"{recovery_seconds:.2f} s",
        f"{total_events / recovery_seconds:,.0f}", f"{len(recovered):,}",
    )
    table.add_note(
        f"overhead {overhead:.2f}x (bar: <{MAX_WAL_OVERHEAD:g}x), "
        f"{stats['wal_bytes'] / 1e6:.1f} MB WAL "
        f"({wal_bytes_per_event:.0f} B/event), "
        f"{int(stats['snapshot_count'])} snapshots, last delta "
        f"{delta_ratio:.1%} of full state"
    )
    report.record(
        "durability",
        {
            "workload": "skewed-batched-ingest",
            "num_users": params["num_users"],
            "num_batches": params["num_batches"],
            "batch_size": params["batch_size"],
            "snapshot_every": params["snapshot_every"],
            "scale": scale,
        },
        {
            "wal_overhead_ratio": round(float(overhead), 4),
            "recovery_seconds_per_million_events": round(per_million, 2),
            "recovery_events_per_sec": round(total_events / recovery_seconds),
            "ingest_events_per_sec": round(total_events / plain_seconds),
            "snapshot_delta_ratio": round(float(delta_ratio), 4),
            "wal_bytes_per_event": round(float(wal_bytes_per_event), 1),
            "delivered": len(wal_triples),
        },
    )

    assert len(wal_triples) > 0
    assert overhead < MAX_WAL_OVERHEAD, (
        f"WAL ingest {wal_seconds:.2f}s is {overhead:.2f}x the unlogged "
        f"{plain_seconds:.2f}s (bar: {MAX_WAL_OVERHEAD:g}x)"
    )
    shutil.rmtree(root, ignore_errors=True)
