"""Cluster assembly: snapshot -> partition shards -> replicas -> broker.

``Cluster.build`` performs the offline load step for every partition: it
inverts the snapshot into all P S shards (disjoint A's) in one columnar
pass, creates ``replication_factor`` replicas per partition, gives them
one D per address space, wires simulated channels, and parks a broker in
front.  Production runs 20 partitions; the partition-scaling benchmark
(E5) sweeps this.

The paper replicates the complete D into every partition because each
partition is a machine.  Here the copy follows the process, not the
partition object: all P x R replicas behind the in-process transport share
one D, and the R replicas inside a partition worker share that worker's
one.  The first engine at a batch scans and inserts it; the rest
reuse both (:meth:`~repro.graph.dynamic_index.DynamicEdgeIndex.enter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cluster.broker import Broker
from repro.cluster.partition import PartitionServer
from repro.cluster.partitioner import HashPartitioner, Partitioner
from repro.cluster.replica import ReplicaSet
from repro.cluster.rpc import SimulatedChannel
from repro.cluster.transport import (
    TRANSPORTS,
    PartitionTransport,
    WorkerTransport,
)
from repro.core.batch import EventBatch, iter_event_batches
from repro.core.detector import OnlineDetector
from repro.core.events import EdgeEvent
from repro.core.params import DetectionParams
from repro.core.recommendation import Recommendation, RecommendationBatch
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.snapshot import GraphSnapshot
from repro.graph.static_index import StaticFollowerIndex
from repro.util.rng import make_rng
from repro.util.validation import require, require_positive

#: Builds one replica's detector programs from its (S shard, D).
DetectorFactory = Callable[
    [StaticFollowerIndex, DynamicEdgeIndex], list[OnlineDetector]
]

#: The production deployment size reported in the paper.
PRODUCTION_PARTITIONS = 20


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a cluster deployment.

    Attributes:
        num_partitions: S shards (paper production: 20).
        replication_factor: replicas per partition.
        influencer_limit: per-user cap applied during the offline load.
        max_edges_per_target: per-C cap on stored D entries (the paper's
            D-pruning mitigation for viral targets).
        track_latency: make partitions record per-event detection time.
        transport: how the broker reaches the partitions —
            ``"inprocess"`` (direct calls + simulated channel latency,
            default) or ``"shm"`` (one multiprocessing worker per
            partition, fed over zero-copy shared-memory rings where the
            host has ``/dev/shm`` and over pickled queues where it has
            not).  A worker fleet must be closed — call
            :meth:`Cluster.close` when done.
    """

    num_partitions: int = PRODUCTION_PARTITIONS
    replication_factor: int = 1
    influencer_limit: int | None = None
    max_edges_per_target: int | None = None
    track_latency: bool = False
    transport: str = "inprocess"

    def __post_init__(self) -> None:
        require_positive(self.num_partitions, "num_partitions")
        require_positive(self.replication_factor, "replication_factor")
        require(
            self.transport in TRANSPORTS,
            f"transport must be one of {TRANSPORTS}, got {self.transport!r}",
        )


class Cluster:
    """The full serving stack: broker + replicated partitions."""

    def __init__(
        self,
        broker: Broker,
        partitioner: Partitioner,
        params: DetectionParams,
    ) -> None:
        """Wrap prebuilt components; prefer :meth:`build`."""
        self.broker = broker
        self.partitioner = partitioner
        self.params = params

    @classmethod
    def build(
        cls,
        snapshot: GraphSnapshot,
        params: DetectionParams | None = None,
        config: ClusterConfig | None = None,
        partitioner: Partitioner | None = None,
        channel_factory: Callable[[int, int], SimulatedChannel] | None = None,
        detector_factory: "DetectorFactory | None" = None,
    ) -> "Cluster":
        """Offline-load a cluster from a snapshot.

        Args:
            snapshot: the offline ``A -> B`` follow graph.
            params: detection parameters (production defaults if omitted).
            config: deployment shape (20 partitions x 1 replica default).
            partitioner: A-ownership function (stable hash by default).
            channel_factory: ``(partition_id, replica_id) -> channel`` for
                custom latency/failure models; zero-latency by default.
            detector_factory: builds each replica's motif programs from its
                ``(static_shard, dynamic_index)`` pair — this is how
                compiled motifs (or several co-hosted programs) are
                deployed fleet-wide.  Factories must construct detectors
                with ``inserts_edges=False``; the engine owns the insert.
                Defaults to one hand-coded diamond per replica.

        Every program reads D only through the batch scan, so replicas share
        one D per address space: one for the whole cluster in-process, one
        per partition worker otherwise.
        """
        params = params or DetectionParams()
        config = config or ClusterConfig()
        partitioner = partitioner or HashPartitioner(config.num_partitions)
        owners = partitioner.owners(np.arange(snapshot.num_users))
        shards = StaticFollowerIndex.load_shards(
            snapshot, owners, config.num_partitions, config.influencer_limit
        )

        dynamic_index = None
        replica_sets: list[ReplicaSet] = []
        for p, shard in enumerate(shards):
            replicas: list[PartitionServer] = []
            channels: list[SimulatedChannel] = []
            if dynamic_index is None or config.transport != "inprocess":
                dynamic_index = DynamicEdgeIndex(
                    retention=params.tau,
                    max_edges_per_target=config.max_edges_per_target,
                )
            for r in range(config.replication_factor):
                detectors = (
                    None
                    if detector_factory is None
                    else detector_factory(shard, dynamic_index)
                )
                replicas.append(
                    PartitionServer(
                        partition_id=p,
                        replica_id=r,
                        static_shard=shard,
                        params=params,
                        detectors=detectors,
                        dynamic_index=dynamic_index,
                        max_edges_per_target=config.max_edges_per_target,
                        track_latency=config.track_latency,
                    )
                )
                if channel_factory is not None:
                    channels.append(channel_factory(p, r))
                else:
                    channels.append(SimulatedChannel(f"p{p}/r{r}"))
            replica_sets.append(ReplicaSet(p, replicas, channels))
        if config.transport == "inprocess":
            broker = Broker(replica_sets)
        else:
            broker = Broker(transport=WorkerTransport(replica_sets))
        return cls(broker, partitioner, params)

    # ------------------------------------------------------------------
    # Serving interface
    # ------------------------------------------------------------------

    def process_event(self, event: EdgeEvent) -> list[Recommendation]:
        """Route one live edge through broker and partitions (the boxed
        per-event reference; in-process transport only)."""
        recommendations, _latency = self.broker.process_event(event)
        return recommendations

    def process_batch(self, batch: EventBatch) -> list[Recommendation]:
        """Route a columnar micro-batch through broker and partitions.

        One fan-out round-trip per partition per batch; emits exactly the
        candidates the per-event loop would, in the same order.
        """
        replies, _latency = self.broker.process_batch(batch)
        return [rec for _i, recs in RecommendationBatch.by_event(replies) for rec in recs]

    def process_stream(
        self,
        events: list[EdgeEvent],
        batch_size: int = 1,
        pipeline_depth: int = 1,
    ) -> list[Recommendation]:
        """Route a whole stream; returns all gathered candidates.

        The stream goes through the columnar :meth:`process_batch` path in
        chunks of ``batch_size`` — a size and nothing else: the default of
        1 routes one-event batches down the same path (the boxed
        :meth:`process_event` reference is only ever reached by name).
        ``pipeline_depth > 1`` keeps up to that many batches in flight
        (submit-ahead) before gathering the oldest — a no-op on the
        synchronous in-process transport, and the throughput mode on the
        worker transport, where the parent encodes the next batch while
        workers chew the previous ones.  Output order and content are
        identical at any size and depth.
        """
        require_positive(batch_size, "batch_size")
        require_positive(pipeline_depth, "pipeline_depth")
        out: list[Recommendation] = []
        inflight = 0

        def gather_oldest() -> None:
            replies, _latency = self.broker.gather_batch()
            for _i, recs in RecommendationBatch.by_event(replies):
                out.extend(recs)

        for batch in iter_event_batches(events, batch_size):
            self.broker.submit_batch(batch)
            inflight += 1
            if inflight >= pipeline_depth:
                gather_oldest()
                inflight -= 1
        while inflight:
            gather_oldest()
            inflight -= 1
        return out

    def query_audience(self, target: int, now: float) -> list[int]:
        """Read-only audience query fanned across all partitions."""
        audience, _latency = self.broker.query_audience(target, now)
        return audience

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @property
    def transport(self) -> PartitionTransport:
        """The broker-to-partition transport in use."""
        return self.broker.transport

    @property
    def replica_sets(self) -> list[ReplicaSet]:
        """The partitions behind the broker (in-process transports only)."""
        return self.broker.replica_sets

    def close(self) -> None:
        """Release transport resources (joins worker processes).

        Idempotent; a no-op for the in-process transport.  Clusters built
        with ``transport="shm"`` must be closed (or used as a context
        manager) so the partition workers are stopped and reaped.
        """
        self.broker.transport.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def prune(self, now: float) -> int:
        """Evict expired entries from every distinct D (via the
        transport); the count is per copy — once in-process, once per
        worker otherwise."""
        return self.broker.transport.prune(now)

    def reload_snapshot(
        self,
        snapshot: GraphSnapshot,
        influencer_limit: int | None = None,
    ) -> int:
        """Roll a new offline snapshot onto every partition replica.

        The paper: "the A -> B edges are computed offline and loaded into
        the system periodically".  Shards are rebuilt with the same
        partitioner (ownership is stable), then each replica swaps its S
        reference atomically; the event stream keeps flowing throughout
        and D is untouched.  Worker-hosted partitions (the ``shm``
        transport) receive their shard as a per-partition
        ``reload_static`` control message — the live fleet hot-reloads
        without a restart.  Returns the number of partitions reloaded
        (dead workers are skipped, like any other control message).
        """
        owners = self.partitioner.owners(np.arange(snapshot.num_users))
        shards = StaticFollowerIndex.load_shards(
            snapshot, owners, self.broker.transport.num_partitions, influencer_limit
        )
        return self.broker.transport.reload_static(dict(enumerate(shards)))

    def checkpoint_dynamic(self) -> "dict | None":
        """One reachable replica's complete D as checkpoint arrays.

        The durability tier's snapshot capture: every replica reads the
        complete D, so any available copy represents the fleet.  None when no
        replica is reachable (snapshot again later).
        """
        return self.broker.transport.checkpoint()

    def load_dynamic(self, arrays: dict) -> int:
        """Restore checkpoint arrays into every distinct D fleet-wide.

        Recovery's warm-start: used together with
        :meth:`reload_snapshot`, it rebuilds a crashed deployment's
        detection state without replaying the full retention window.
        Each copy is restored once (restoring re-inserts, so a shared D
        restored per replica would hold every edge twice).  Returns the
        per-copy edge count restored.
        """
        return self.broker.transport.load_dynamic(arrays)

    def memory_report(self) -> dict[str, int]:
        """Aggregate S and D footprints across the fleet.

        D counts each distinct copy once: flat in partitions in-process,
        one copy per worker (~P x, the paper's acknowledged bottleneck) on
        a worker transport.  S's total stays roughly constant because the
        shards are disjoint.  Collected over the transport's health control
        message, so it works for worker-hosted partitions too (dead workers
        contribute nothing).
        """
        total = {"static_index": 0, "dynamic_index": 0}
        for partition in self.broker.transport.health():
            for replica in partition.replicas:
                total["static_index"] += replica.static_memory_bytes
                total["dynamic_index"] += replica.dynamic_memory_bytes
        return total


def fault_injecting_channel_factory(
    failure_rate: float, seed: int = 0
) -> Callable[[int, int], SimulatedChannel]:
    """Channel factory with i.i.d. injected call failures (for chaos tests)."""
    def factory(partition_id: int, replica_id: int) -> SimulatedChannel:
        return SimulatedChannel(
            f"p{partition_id}/r{replica_id}",
            failure_rate=failure_rate,
            rng=make_rng(seed, "channel", partition_id, replica_id),
        )

    return factory
