"""Replay-to-now recovery: durability root in, rebuilt deployment out.

Recovery composes the other two halves of the tier.  It rebuilds the
cluster from the root's static graph + run configuration (always as an
in-process deployment — results are transport-invariant, so the recovered
state is valid whatever transport the crashed run used), then either

* warm-starts from the latest snapshot — D restored fleet-wide through
  the ``load_dynamic`` control message, funnel filter tables reloaded,
  the delivered ledger re-seeded, the serving cache rematerialized — and
  replays only the WAL records *after* the snapshot's high-water mark, or
* cold-starts (``use_snapshot=False``) and replays the entire surviving
  WAL from sequence zero.

Replayed batches go through the cluster's normal batched ingest
(:meth:`~repro.cluster.broker.Broker.process_batch`) and every origin
event's candidates end their delivery window in
:func:`~repro.delivery.pipeline.release_window` — the root's ranker, its
serving cache, the funnel — each at its original flush time: the same
code path the live topology ran, so a recovered deployment's delivered
multiset and served rows equal the uninterrupted run's for every event
the WAL retained (the crash-kill-restart suite pins this).

That holds for roots whose delivery window was one candidate batch
(``delivery_batch_size == 1``, the default, and no adaptive controller
retuning it).  A wider window's boundaries depended on the *measured* detection time of the crashed run
and are not in the WAL; such a root is replayed one origin event per
window as the best available approximation and
:attr:`RecoveryResult.windows_reproducible` says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.core.params import DetectionParams
from repro.delivery.dedup import DedupFilter
from repro.delivery.pipeline import DeliveryPipeline, release_window
from repro.delivery.scoring import TopKPerUserBuffer
from repro.durability.manager import load_root_config
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import iter_wal
from repro.graph.snapshot import GraphSnapshot

_EMPTY_F64 = np.empty(0, dtype=np.float64)


@dataclass
class RecoveryResult:
    """A recovered deployment plus everything replay produced.

    ``delivered`` is the full ledger — the snapshot's rows (already
    delivered before the crash, in order) followed by every notification
    replay re-delivered — as ``(recipient, candidate, created_at,
    delivered_at)`` tuples, the currency the equivalence suite compares.
    """

    cluster: Cluster
    delivery: DeliveryPipeline
    delivered: list[tuple[int, int, float, float]] = field(
        default_factory=list
    )
    serving: "object | None" = None
    snapshot_id: str | None = None
    wal_start_seq: int = 0
    replayed_records: int = 0
    replayed_events: int = 0
    #: False when the root ran ``delivery_batch_size > 1`` (or let the
    #: adaptive controller own it): the live windows' boundaries are not
    #: in the WAL, so the replayed ledger is an approximation and must
    #: not be verified against a reference.
    windows_reproducible: bool = True
    #: Creation timestamps of every event the recovered state covers
    #: (snapshot arena + replayed tail) — the verifier's event universe.
    event_timestamps: np.ndarray = field(
        default_factory=lambda: _EMPTY_F64
    )

    def close(self) -> None:
        self.cluster.close()


def _build_cluster(root: Path, config: dict) -> Cluster:
    snapshot = GraphSnapshot.load(root / "graph.npz")
    params = DetectionParams(
        k=int(config.get("k", 3)), tau=float(config.get("tau", 1_800.0))
    )
    cluster_config = ClusterConfig(
        num_partitions=int(config.get("num_partitions", 1)),
        transport="inprocess",
    )
    return Cluster.build(snapshot, params, cluster_config)


def _build_serving(config: dict):
    from repro.serving.cache import ShardedServingCache

    return ShardedServingCache(
        num_shards=int(config.get("serving_shards", 1)),
        k=int(config.get("serving_k", 2)),
        ttl=config.get("serving_ttl"),
    )


def recover(root: str | Path, *, use_snapshot: bool = True) -> RecoveryResult:
    """Rebuild a crashed deployment from its durability root.

    Args:
        root: the directory a :class:`~repro.durability.manager.
            DurabilityManager` (via ``prepare_root``) wrote during the
            crashed run.
        use_snapshot: warm-start from the latest snapshot when one
            exists; ``False`` forces a full-WAL cold replay (only
            possible when segment GC was disabled — the default GC
            deletes segments a snapshot covers).

    Replay stops, with a :class:`RuntimeWarning`, at the WAL's torn
    tail if the crash left one; everything before it is recovered.
    """
    root = Path(root)
    config = load_root_config(root)
    cluster = _build_cluster(root, config)
    delivery = DeliveryPipeline(filters=[DedupFilter()])
    # Absent keys are how roots from before they were recorded read:
    # unranked, one candidate batch per delivery window.
    ranked_k = config.get("ranked_k")
    ranker = TopKPerUserBuffer(k=int(ranked_k)) if ranked_k is not None else None
    result = RecoveryResult(
        cluster=cluster,
        delivery=delivery,
        serving=_build_serving(config) if config.get("serving") else None,
        windows_reproducible=(
            int(config.get("delivery_batch_size", 1)) == 1
            and not config.get("adaptive", False)
        ),
    )

    event_parts: list[np.ndarray] = []
    store = SnapshotStore(root / "snapshots")
    if use_snapshot and store.list_ids():
        manifest, components = store.load_latest()
        result.snapshot_id = manifest["id"]
        result.wal_start_seq = int(manifest["wal_seq"]) + 1
        cluster.load_dynamic(components["cluster_d"])
        for stage in delivery.filters:
            arrays = components.get(f"filter_{stage.name}")
            if arrays is not None:
                stage.load_state(arrays)
        ledger = components.get("ledger")
        if ledger is not None:
            result.delivered.extend(
                zip(
                    ledger["recipients"].tolist(),
                    ledger["candidates"].tolist(),
                    ledger["created_at"].tolist(),
                    ledger["delivered_at"].tolist(),
                )
            )
        if "serving" in components:
            if result.serving is None:  # a root from before the key
                result.serving = _build_serving(config)
            result.serving.load_state(components["serving"])
        arena = components.get("events", {}).get("timestamps")
        if arena is not None:
            event_parts.append(arena)

    for record in iter_wal(root / "wal", start_seq=result.wal_start_seq):
        # The live consumer's exact ingest: one batched fan-out per WAL
        # record at its original flush time, per-event attribution kept —
        # each origin event's candidates are one delivery window, as they
        # were live.
        grouped, _latency = cluster.broker.process_batch(
            record.batch, now=record.now
        )
        for candidates in grouped:
            if not len(candidates):
                continue
            for notification in release_window(
                candidates, record.now, delivery, ranker, result.serving
            ):
                rec = notification.recommendation
                result.delivered.append(
                    (
                        rec.recipient,
                        rec.candidate,
                        rec.created_at,
                        notification.delivered_at,
                    )
                )
        event_parts.append(record.batch.timestamps)
        result.replayed_records += 1
        result.replayed_events += len(record.batch)

    if event_parts:
        result.event_timestamps = np.concatenate(event_parts)
    return result
