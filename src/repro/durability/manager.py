"""Live-side durability glue: the WAL tap and the snapshot trigger.

A :class:`DurabilityManager` owns one durability *root* directory::

    <root>/graph.npz     the static follow graph (written once at start)
    <root>/config.json   the run's whole :class:`~repro.topology.TopologyConfig`
    <root>/wal/          segmented write-ahead event log
    <root>/snapshots/    incremental state snapshots + manifests

The streaming consumer calls :meth:`log_batch` immediately before every
flush into the cluster, so the WAL prefix is exactly the set of batches
the cluster has ingested.  The topology calls :meth:`snapshot` at
quiescent points (no in-flight candidates anywhere between the consumer
and the funnel), capturing every state arena — one replica's D edges
via the cluster's ``checkpoint`` control message, the funnel's stage
tables (every shard's, for a sharded funnel: ``stage_state()``), the
delivered-notification ledger, the serving cache rows,
and the append-only arena of logged event timestamps (which is what
lets a verifier know exactly which source events a recovered state
covers).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.core.batch import EventBatch
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import WriteAheadLog, iter_wal
from repro.topology import TopologyConfig

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.graph.snapshot import GraphSnapshot

_EMPTY_F64 = np.empty(0, dtype=np.float64)


def prepare_root(
    root: str | Path, snapshot: "GraphSnapshot", config: TopologyConfig
) -> Path:
    """Initialize a durability root: the static graph + the whole
    deployment description, written once at startup — recovery rebuilds
    the deployment from them, then restores dynamic state on top."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    snapshot.save(root / "graph.npz")
    with open(root / "config.json", "w") as handle:
        json.dump(config.to_dict(), handle, indent=1)
    return root


def load_root_config(root: str | Path) -> TopologyConfig:
    """The deployment a root was written by (flat pre-``TopologyConfig``
    ``config.json`` files load too)."""
    with open(Path(root) / "config.json") as handle:
        return TopologyConfig.from_dict(json.load(handle))


def ledger_arrays(notifications: Iterable) -> dict[str, np.ndarray]:
    """The delivered ledger as columns (append-only across a run)."""
    notifications = (
        notifications
        if isinstance(notifications, list)
        else list(notifications)
    )
    n = len(notifications)
    return {
        "recipients": np.fromiter(
            (p.recommendation.recipient for p in notifications), np.int64, n
        ),
        "candidates": np.fromiter(
            (p.recommendation.candidate for p in notifications), np.int64, n
        ),
        "created_at": np.fromiter(
            (p.recommendation.created_at for p in notifications), np.float64, n
        ),
        "delivered_at": np.fromiter(
            (p.delivered_at for p in notifications), np.float64, n
        ),
    }


class DurabilityManager:
    """WAL + snapshot store bound to one live cluster."""

    def __init__(
        self,
        root: str | Path,
        cluster: "Cluster | None" = None,
        *,
        fsync_every: int = 64,
        segment_bytes: int = 4 << 20,
        throttle_seconds: float = 0.0,
        gc_segments: bool = True,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.cluster = cluster
        #: Wall-clock sleep per logged batch — a crash-testing aid that
        #: widens the window in which a SIGKILL lands mid-run.
        self.throttle_seconds = throttle_seconds
        self.gc_segments = gc_segments
        self.wal = WriteAheadLog(
            self.root / "wal",
            segment_bytes=segment_bytes,
            fsync_every=fsync_every,
        )
        self.store = SnapshotStore(self.root / "snapshots")
        self.events_logged = 0
        self.snapshots_taken = 0
        self.last_snapshot_wal_seq = -1
        self.last_snapshot_at: float | None = None
        self._last_logged_now = 0.0
        self._event_parts: list[np.ndarray] = []
        self._seed_event_arena()

    def _seed_event_arena(self) -> None:
        """Rebuild the logged-event-timestamp arena over an existing root.

        Snapshot arena + surviving WAL tail, so the append-only delta
        keeps working across restarts of the same deployment.
        """
        manifest = self.store.latest_manifest()
        start_seq = 0
        if manifest is not None:
            self.last_snapshot_wal_seq = int(manifest["wal_seq"])
            self.last_snapshot_at = float(manifest["created_at"])
            start_seq = self.last_snapshot_wal_seq + 1
            _, components = self.store.load(manifest["id"])
            arena = components.get("events", {}).get("timestamps")
            if arena is not None and len(arena):
                self._event_parts.append(arena)
                self.events_logged += len(arena)
        for record in iter_wal(self.wal.directory, start_seq=start_seq):
            self._event_parts.append(record.batch.timestamps.copy())
            self.events_logged += len(record.batch.timestamps)
            self._last_logged_now = max(self._last_logged_now, record.now)

    # -- WAL tap (the consumer calls this before every flush) -----------

    def log_batch(self, batch: EventBatch, now: float) -> int:
        """Append one about-to-be-ingested batch; returns its sequence."""
        if self.throttle_seconds:
            time.sleep(self.throttle_seconds)
        seq = self.wal.append(batch, now)
        self._event_parts.append(batch.timestamps.copy())
        self.events_logged += len(batch.timestamps)
        if now > self._last_logged_now:
            self._last_logged_now = now
        return seq

    def logged_event_timestamps(self) -> np.ndarray:
        """Creation timestamps of every logged event (append-only)."""
        if not self._event_parts:
            return _EMPTY_F64
        return np.concatenate(self._event_parts)

    # -- snapshot trigger (the topology calls this when quiescent) ------

    def snapshot(
        self,
        now: float,
        delivery=None,
        notifications: list | None = None,
        serving=None,
    ) -> str | None:
        """Capture every state arena; returns the snapshot id.

        Must be called at a quiescent point: every WAL-logged batch fully
        ingested, filtered, and delivered, with nothing in flight between
        the consumer and the funnel — the captured arenas then correspond
        exactly to the WAL prefix the manifest's ``wal_seq`` claims.
        Returns None (try again later) when no cluster replica is
        reachable for the D checkpoint.
        """
        if self.cluster is None:
            raise RuntimeError("snapshot() needs a bound cluster")
        dynamic = self.cluster.checkpoint_dynamic()
        if dynamic is None:
            return None
        # Records covered by this snapshot must survive the process: a
        # userspace flush makes them SIGKILL-proof before the manifest
        # that references them lands.
        self.wal.flush()
        wal_seq = self.wal.last_seq
        components = {
            "cluster_d": dynamic,
            "events": {"timestamps": self.logged_event_timestamps()},
        }
        if delivery is not None:
            components.update(delivery.stage_state())
        if notifications is not None:
            components["ledger"] = ledger_arrays(notifications)
        if serving is not None and hasattr(serving, "state_arrays"):
            # Duck-typed on purpose: the heap cache, the sharded wrapper,
            # and the worker-resident reader (in-worker serving mode, a
            # consistent seqlock copy of the shm arenas another process
            # writes) all expose the same payload schema, so snapshots
            # taken in any serving mode restore into any other.
            components["serving"] = serving.state_arrays()
        snapshot_id = self.store.save(
            components, wal_seq=wal_seq, created_at=now
        )
        self.snapshots_taken += 1
        self.last_snapshot_wal_seq = wal_seq
        self.last_snapshot_at = now
        if self.gc_segments:
            self.wal.truncate_before(wal_seq + 1)
        return snapshot_id

    # -- gauges (ClusterMonitor) ----------------------------------------

    def stats(self) -> dict[str, float]:
        """The operator-facing durability gauges."""
        age = 0.0
        if self.last_snapshot_at is not None:
            age = max(0.0, self._last_logged_now - self.last_snapshot_at)
        elif self._last_logged_now:
            age = self._last_logged_now
        return {
            "wal_records": float(self.wal.last_seq + 1),
            "wal_unsynced": float(self.wal.unsynced_records),
            "wal_bytes": float(self.wal.bytes_appended),
            "snapshot_count": float(self.snapshots_taken),
            "snapshot_lag_records": float(
                self.wal.last_seq - self.last_snapshot_wal_seq
            ),
            "snapshot_age_seconds": age,
            "snapshot_delta_bytes": float(self.store.last_delta_bytes),
            "snapshot_full_bytes": float(self.store.last_full_bytes),
        }

    def close(self) -> None:
        """Sync and close the WAL (idempotent)."""
        self.wal.close()

    def __enter__(self) -> "DurabilityManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
