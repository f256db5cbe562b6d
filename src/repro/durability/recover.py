"""Replay-to-now recovery: durability root in, rebuilt deployment out.

Recovery composes the other two halves of the tier.  It rebuilds the
deployment from the root's static graph + stored
:class:`~repro.topology.TopologyConfig` through the same
:func:`~repro.topology.build_deployment` the live run used (pinned to the
in-process transport — results are transport-invariant, so the recovered
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
(:attr:`~repro.topology.TopologyConfig.windows_reproducible`).  A wider
window's boundaries are not in the WAL; such a root is replayed one origin
event per window as the best available approximation, which must not be
verified against a reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.recommendation import RecommendationBatch
from repro.delivery.pipeline import release_window
from repro.durability.manager import load_root_config
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import iter_wal
from repro.graph.snapshot import GraphSnapshot
from repro.topology import Deployment, build_deployment

_EMPTY_F64 = np.empty(0, dtype=np.float64)


@dataclass
class RecoveryResult:
    """A recovered deployment plus everything replay produced.

    ``delivered`` is the full ledger — the snapshot's rows (already
    delivered before the crash, in order) followed by every notification
    replay re-delivered — as ``(recipient, candidate, created_at,
    delivered_at)`` tuples, the currency the equivalence suite compares.
    """

    deployment: Deployment
    delivered: list[tuple[int, int, float, float]] = field(
        default_factory=list
    )
    snapshot_id: str | None = None
    wal_start_seq: int = 0
    replayed_records: int = 0
    replayed_events: int = 0
    #: Creation timestamps of every event the recovered state covers
    #: (snapshot arena + replayed tail) — the verifier's event universe.
    event_timestamps: np.ndarray = field(
        default_factory=lambda: _EMPTY_F64
    )

    @property
    def serving(self):
        """The rematerialized serving cache (``None``: root never served)."""
        return self.deployment.serving

    def close(self) -> None:
        self.deployment.close()


def recover(root: str | Path, *, use_snapshot: bool = True) -> RecoveryResult:
    """Rebuild a crashed deployment from its durability root.

    Args:
        root: the directory ``build_deployment(..., wal_dir=root)`` (via
            ``prepare_root``) wrote during the crashed run.
        use_snapshot: warm-start from the latest snapshot when one
            exists; ``False`` forces a full-WAL cold replay (only
            possible when segment GC was disabled — the default GC
            deletes segments a snapshot covers).

    Replay stops, with a :class:`RuntimeWarning`, at the WAL's torn
    tail if the crash left one; everything before it is recovered.
    """
    root = Path(root)
    config = load_root_config(root)
    # Everything recovery pins, whatever the crashed run used.
    config = replace(config, cluster=replace(config.cluster, transport="inprocess"))
    deployment = build_deployment(config, GraphSnapshot.load(root / "graph.npz"))
    result = RecoveryResult(deployment)
    delivery, ranker = deployment.delivery, config.ranker()

    event_parts: list[np.ndarray] = []
    store = SnapshotStore(root / "snapshots")
    if use_snapshot and store.list_ids():
        manifest, components = store.load_latest()
        result.snapshot_id = manifest["id"]
        result.wal_start_seq = int(manifest["wal_seq"]) + 1
        deployment.cluster.load_dynamic(components["cluster_d"])
        delivery.load_stage_state(components)
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
        if "serving" in components and result.serving is not None:
            result.serving.load_state(components["serving"])
        arena = components.get("events", {}).get("timestamps")
        if arena is not None:
            event_parts.append(arena)

    for record in iter_wal(root / "wal", start_seq=result.wal_start_seq):
        # The live consumer's exact ingest: one batched fan-out per WAL
        # record at its original flush time, per-event attribution kept —
        # each origin event's candidates are one delivery window, as they
        # were live.
        replies, _latency = deployment.cluster.broker.process_batch(
            record.batch, now=record.now
        )
        for _event, candidates in RecommendationBatch.by_event(replies):
            for notification in release_window(
                candidates, record.now, delivery, ranker, deployment.parent_cache
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
