"""Fleet health monitoring over a running cluster.

A :class:`ClusterMonitor` polls every partition for the signals an
operator pages on: events processed (lag detection between replicas of
one partition), D size and memory (the paper's acknowledged memory
pressure), channel failure counts, and replica availability.

Polling goes through the cluster transport's ``health`` control message,
so the same monitor watches in-process partitions *and* worker-hosted
ones — for the latter it additionally surfaces worker liveness and the
per-partition request-queue backlog (the admission controller's overload
signal under real parallelism).  Worker fleets additionally feed
their ``wire_stats()`` into slab-occupancy and pickle-fallback-rate
gauges: on a ring-fronted wire a rising fallback rate means ring slots
are undersized for the workload's bursts, and slab occupancy is the shm
flavor of the backlog signal (a host without ``/dev/shm`` reports no
slabs and every batch on the pickle lane).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.ops.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.durability.manager import DurabilityManager
    from repro.serving.cache import ServingCache


@dataclass(frozen=True)
class ReplicaHealth:
    """One replica's vital signs."""

    name: str
    available: bool
    events_processed: int
    missed_events: int
    dynamic_edges: int
    dynamic_memory_bytes: int
    channel_failures: int


@dataclass(frozen=True)
class PartitionHealth:
    """Aggregated health of one partition's replica set."""

    partition_id: int
    replicas: tuple[ReplicaHealth, ...]
    #: False when the partition's worker process has died (process
    #: transport); in-process partitions are always "alive".
    worker_alive: bool = True
    #: Pending submitted-but-unprocessed requests on the partition's
    #: queue (0 for synchronous transports).
    backlog: int = 0

    @property
    def healthy_replicas(self) -> int:
        """Replicas currently in service (0 when the worker is dead)."""
        if not self.worker_alive:
            return 0
        return sum(1 for replica in self.replicas if replica.available)

    @property
    def max_lag(self) -> int:
        """Largest unrepaired missed-event count across replicas.

        Based on the replica set's missed-event ledger (reset by resync),
        not on lifetime processed counters — a resynced replica is caught
        up even though it processed fewer events over its lifetime.
        """
        if not self.replicas:
            return 0
        return max(replica.missed_events for replica in self.replicas)

    @property
    def at_risk(self) -> bool:
        """True when one more failure would start losing events."""
        return self.healthy_replicas <= 1


class ClusterMonitor:
    """Polls a cluster and publishes per-replica metrics.

    An optional *serving* cache (the pull tier's
    :class:`~repro.serving.cache.ServingCache`, its sharded wrapper, or
    the worker-resident reader) adds the read side's gauges to every
    poll: ``serving_hit_rate``, ``serving_cache_users``, and
    ``serving_bytes_per_user`` — the three numbers that say whether the
    materialized top-k is keeping up with the query population and what
    each cached user costs in RAM.  Every surface adds, per shard,
    ``serving_shard_<i>_users``/``_evictions`` and the writer-published
    ``_writer_lag_updates``/``_generation``/``_attaches`` — lag between
    what the parent posted and what the shard's writer has merged (zero
    by construction when the writer runs in this process), and how often
    table growth forced readers to re-attach.

    An optional *durability* manager adds the durable tier's gauges —
    most importantly ``durability_snapshot_lag_records`` (WAL records a
    crash right now would have to replay) and
    ``durability_wal_unsynced`` (records an abrupt power loss would
    lose) — the two numbers that bound recovery time and data loss.
    """

    def __init__(
        self,
        cluster: Cluster,
        registry: MetricsRegistry | None = None,
        serving: "ServingCache | None" = None,
        durability: "DurabilityManager | None" = None,
    ) -> None:
        self.cluster = cluster
        self.registry = registry or MetricsRegistry()
        self.serving = serving
        self.durability = durability
        #: Replica count last seen per partition, so a dead worker's
        #: per-replica gauges can be zeroed instead of freezing at their
        #: last healthy values (a frozen replica_available=1 on a dead
        #: partition would silence the very page this monitor exists for).
        self._known_replicas: dict[int, int] = {}

    def poll(self) -> list[PartitionHealth]:
        """Take a health snapshot of every partition, updating metrics."""
        report: list[PartitionHealth] = []
        for snapshot in self.cluster.broker.transport.health():
            if not snapshot.worker_alive:
                for i in range(self._known_replicas.get(snapshot.partition_id, 0)):
                    labels = {
                        "partition": str(snapshot.partition_id),
                        "replica": str(i),
                    }
                    self.registry.gauge("replica_available", **labels).set(0.0)
            else:
                self._known_replicas[snapshot.partition_id] = len(
                    snapshot.replicas
                )
            replicas: list[ReplicaHealth] = []
            for i, replica in enumerate(snapshot.replicas):
                health = ReplicaHealth(
                    name=replica.name,
                    available=replica.available,
                    events_processed=replica.events_processed,
                    missed_events=replica.missed_events,
                    dynamic_edges=replica.dynamic_edges,
                    dynamic_memory_bytes=replica.dynamic_memory_bytes,
                    channel_failures=replica.channel_failures,
                )
                replicas.append(health)
                labels = {
                    "partition": str(snapshot.partition_id),
                    "replica": str(i),
                }
                self.registry.gauge("replica_available", **labels).set(
                    1.0 if health.available else 0.0
                )
                self.registry.gauge("d_edges", **labels).set(health.dynamic_edges)
                self.registry.gauge("d_memory_bytes", **labels).set(
                    health.dynamic_memory_bytes
                )
                self.registry.gauge("missed_events", **labels).set(
                    health.missed_events
                )
            partition_labels = {"partition": str(snapshot.partition_id)}
            self.registry.gauge("worker_alive", **partition_labels).set(
                1.0 if snapshot.worker_alive else 0.0
            )
            self.registry.gauge("worker_backlog", **partition_labels).set(
                snapshot.backlog
            )
            report.append(
                PartitionHealth(
                    partition_id=snapshot.partition_id,
                    replicas=tuple(replicas),
                    worker_alive=snapshot.worker_alive,
                    backlog=snapshot.backlog,
                )
            )
        # The aggregate backlog is published unconditionally — admission
        # or no admission — so the adaptive control plane and dashboards
        # see the same overload signal on every transport.
        self.registry.gauge("transport_backlog").set(
            float(self.cluster.broker.transport.backlog())
        )
        self._publish_wire_stats()
        self._publish_serving_stats()
        self._publish_durability_stats()
        return report

    def _publish_durability_stats(self) -> None:
        """Publish the durable tier's gauges when a manager is wired."""
        durability = self.durability
        if durability is None:
            return
        for key, value in durability.stats().items():
            self.registry.gauge(f"durability_{key}").set(value)

    def _publish_serving_stats(self) -> None:
        """Publish the pull tier's gauges when a serving cache is wired.

        The aggregates must hold up when shard caches grow at different
        rates: users and bytes are summed across shards and the ratio
        taken last (total bytes / total users), never averaged per shard
        — a hot shard three doublings ahead of a cold one would otherwise
        be washed out of ``serving_bytes_per_user``.  The per-shard
        gauges come from ``shard_stats()``, one schema whichever process
        holds the writers — for worker-resident caches that is the
        control-lane visibility that replaces reply decoding.
        """
        serving = self.serving
        if serving is None:
            return
        self.registry.gauge("serving_hit_rate").set(serving.hit_rate)
        self.registry.gauge("serving_cache_users").set(
            float(serving.users_cached)
        )
        self.registry.gauge("serving_bytes_per_user").set(
            serving.bytes_per_user()
        )
        for shard, stats in enumerate(serving.shard_stats()):
            for key in (
                "users",
                "evictions",
                "writer_lag_updates",
                "generation",
                "attaches",
            ):
                self.registry.gauge(f"serving_shard_{shard}_{key}").set(
                    stats[key]
                )

    def _publish_wire_stats(self) -> None:
        """Publish the worker wire's gauges (in process there is no wire)."""
        transport = self.cluster.broker.transport
        if transport.local_replica_sets is not None:
            return
        for key, value in transport.wire_stats().items():
            self.registry.gauge(f"shm_{key}").set(value)

    def alerts(self) -> list[str]:
        """Human-readable alerts an operator would page on."""
        out: list[str] = []
        for partition in self.poll():
            if not partition.worker_alive:
                out.append(
                    f"p{partition.partition_id}: WORKER DEAD - "
                    "partition is losing every event"
                )
            elif partition.healthy_replicas == 0:
                out.append(
                    f"p{partition.partition_id}: ALL REPLICAS DOWN - "
                    "events are being lost"
                )
            elif partition.at_risk:
                out.append(
                    f"p{partition.partition_id}: single healthy replica "
                    "(no redundancy)"
                )
            if partition.max_lag > 0:
                out.append(
                    f"p{partition.partition_id}: replica divergence of "
                    f"{partition.max_lag} events - resync needed"
                )
        return out
