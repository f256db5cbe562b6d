"""Replica sets: fault tolerance and read throughput for one partition.

"Note that we can replicate the partitions for both fault tolerance and
increased query throughput."  All replicas consume the full event stream;
detection output is taken from the primary (lowest-index healthy replica)
so one motif never produces duplicate notifications; read-only queries
round-robin across healthy replicas, which is where the read-throughput
scaling comes from.

Every replica of a set reads one D: the cluster's in process, the
worker's in a partition worker (``Cluster.build``).  The first replica to
see a batch inserts it, so a replica that misses a batch loses that
batch's candidates and counts it in ``missed_events``, but its D is never
stale.  :meth:`ReplicaSet.resync` therefore copies nothing: it clears the
replica's missed-event ledger and rejoins it, and refuses a set whose
replicas hold different D objects, where a rejoin would serve from a stale
one.
"""

from __future__ import annotations

from repro.cluster.partition import PartitionServer
from repro.cluster.rpc import RpcError, SimulatedChannel
from repro.core.batch import EventBatch
from repro.core.events import EdgeEvent
from repro.core.recommendation import Recommendation, RecommendationBatch
from repro.util.validation import require


class AllReplicasDown(RuntimeError):
    """Every replica of a partition is unavailable."""


class ReplicaSet:
    """All replicas of one partition behind a tiny routing layer."""

    def __init__(
        self,
        partition_id: int,
        replicas: list[PartitionServer],
        channels: list[SimulatedChannel] | None = None,
    ) -> None:
        """Create a replica set.

        Args:
            partition_id: the partition these replicas serve.
            replicas: at least one :class:`PartitionServer`.
            channels: one simulated channel per replica (defaults to
                zero-latency, always-up channels).
        """
        require(len(replicas) >= 1, "a replica set needs at least one replica")
        self.partition_id = partition_id
        self.replicas = list(replicas)
        if channels is None:
            channels = [
                SimulatedChannel(f"p{partition_id}/r{i}")
                for i in range(len(replicas))
            ]
        require(
            len(channels) == len(replicas),
            "need exactly one channel per replica",
        )
        self.channels = channels
        self._read_cursor = 0
        #: Events each replica missed while down (forces resync to rejoin).
        self.missed_events = [0] * len(replicas)

    # ------------------------------------------------------------------
    # Health management
    # ------------------------------------------------------------------

    def mark_down(self, replica_id: int) -> None:
        """Take one replica out of service."""
        self.channels[replica_id].mark_down()

    def mark_up(self, replica_id: int) -> None:
        """Return a replica to service, keeping its missed-event ledger.

        Prefer :meth:`resync`, which clears the ledger as it rejoins.
        """
        self.channels[replica_id].mark_up()

    def resync(self, replica_id: int) -> None:
        """Clear the replica's missed-event ledger and rejoin it (its D is
        its siblings' D, so there is nothing to copy).

        Raises:
            AllReplicasDown: when no healthy sibling is in service.
            ValueError: when the replicas hold different D objects.
        """
        if not any(
            channel.available
            for i, channel in enumerate(self.channels)
            if i != replica_id
        ):
            raise AllReplicasDown(
                f"partition {self.partition_id}: no healthy replica to resync from"
            )
        require(
            len({id(r.engine.dynamic_index) for r in self.replicas}) == 1,
            f"partition {self.partition_id}: replicas hold different D "
            "objects; a rejoining replica would read a stale one",
        )
        self.missed_events[replica_id] = 0
        self.channels[replica_id].mark_up()

    def healthy_replicas(self) -> list[int]:
        """Indexes of replicas currently in service."""
        return [i for i, ch in enumerate(self.channels) if ch.available]

    # ------------------------------------------------------------------
    # Serving interface
    # ------------------------------------------------------------------

    def ingest(
        self, event: EdgeEvent, now: float | None = None
    ) -> tuple[list[Recommendation], float]:
        """Deliver the event to every healthy replica.

        Returns the primary's candidates plus the *maximum* virtual channel
        latency (the fan-out completes when the slowest replica acks).

        Raises:
            AllReplicasDown: when no replica accepted the event.
        """
        primary_output: list[Recommendation] | None = None
        worst_latency = 0.0
        delivered = False
        for i, (replica, channel) in enumerate(zip(self.replicas, self.channels)):
            if not channel.available:
                self.missed_events[i] += 1
                continue
            try:
                result = channel.call(replica.ingest, event, now)
            except RpcError:
                # Transient fault: this replica missed the event and now
                # diverges from its siblings until resynced.
                self.missed_events[i] += 1
                continue
            worst_latency = max(worst_latency, result.latency)
            delivered = True
            if primary_output is None:  # lowest-index healthy = primary
                primary_output = result.value
        if not delivered:
            raise AllReplicasDown(
                f"partition {self.partition_id}: event lost, all replicas down"
            )
        return primary_output or [], worst_latency

    def ingest_batch(
        self, batch: EventBatch, now: float | None = None
    ) -> tuple[RecommendationBatch, float]:
        """Deliver a columnar micro-batch to every healthy replica.

        One simulated RPC per replica carries the whole batch (pipelined
        delivery — the virtual latency is paid once per batch, not once per
        event).  Returns the primary's candidate batch plus the maximum
        channel latency, mirroring :meth:`ingest`.

        Raises:
            AllReplicasDown: when no replica accepted the batch.
        """
        primary_output: RecommendationBatch | None = None
        worst_latency = 0.0
        delivered = False
        n = len(batch)
        for i, (replica, channel) in enumerate(zip(self.replicas, self.channels)):
            if not channel.available:
                self.missed_events[i] += n
                continue
            try:
                result = channel.call(replica.ingest_batch, batch, now)
            except RpcError:
                # Transient fault: this replica missed the whole batch and
                # now diverges from its siblings until resynced.
                self.missed_events[i] += n
                continue
            worst_latency = max(worst_latency, result.latency)
            delivered = True
            if primary_output is None:  # lowest-index healthy = primary
                primary_output = result.value
        if not delivered:
            raise AllReplicasDown(
                f"partition {self.partition_id}: batch lost, all replicas down"
            )
        return primary_output, worst_latency

    def query_audience(self, target: int, now: float) -> tuple[list[int], float]:
        """Round-robin a read across healthy replicas, with failover.

        Returns (audience, virtual latency of the call that served it).
        """
        attempts = 0
        while attempts < len(self.replicas):
            index = self._read_cursor % len(self.replicas)
            self._read_cursor += 1
            channel = self.channels[index]
            attempts += 1
            if not channel.available:
                continue
            try:
                result = channel.call(
                    self.replicas[index].query_audience, target, now
                )
            except RpcError:
                continue
            return result.value, result.latency
        raise AllReplicasDown(
            f"partition {self.partition_id}: no replica served the read"
        )
