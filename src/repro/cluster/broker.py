"""Brokers: fan-out / gather coordination over all partitions.

"The final design is a fairly standard partitioned, replicated architecture
with coordination handled by brokers that fan-out queries and gather
results."  A broker receives each live edge event, fans it out to every
partition's replica set (every partition needs the complete D, so every
partition must see every event), and gathers one candidate batch per
partition.  Partitions own disjoint A's, so gathering is pure
concatenation.
Partitions in one process share one D: the first to see a batch inserts
and scans it, and the others run only their own S-shard k-overlaps, so
fanning a batch out in-process costs one D insert, not P.

The fan-out itself goes through a pluggable
:class:`~repro.cluster.transport.PartitionTransport`: the default
:class:`~repro.cluster.transport.InProcessTransport` preserves the classic
direct-call behavior (partitions in this process, simulated channel
latency), while :class:`~repro.cluster.transport.WorkerTransport` hosts
each partition in its own worker process for real parallelism (one
wire, fronted by shared-memory rings where the host has them).  The
broker's submit/gather split means the fan-out is asynchronous whenever
the transport is: every partition receives the batch before any result is
awaited.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.transport import InProcessTransport, PartitionTransport
from repro.core.batch import EventBatch
from repro.core.events import EdgeEvent
from repro.core.recommendation import Recommendation, RecommendationBatch
from repro.util.validation import require

if TYPE_CHECKING:  # runtime cycle: replica -> rpc only, broker -> transport
    from repro.cluster.replica import ReplicaSet


@dataclass
class BrokerStats:
    """Coordination accounting for one broker."""

    events_routed: int = 0
    fan_out_calls: int = 0
    gather_results: int = 0
    partitions_lost_events: int = 0


class Broker:
    """Fans each event out to all partitions and gathers candidates."""

    def __init__(
        self,
        replica_sets: "list[ReplicaSet] | None" = None,
        transport: PartitionTransport | None = None,
    ) -> None:
        """Create a broker over replica sets or an explicit transport.

        Args:
            replica_sets: the classic construction — one replica set per
                partition, wrapped in an :class:`InProcessTransport`.
            transport: a prebuilt transport (exclusive with
                *replica_sets*); this is how worker-process partitions are
                parked behind a broker.
        """
        if transport is None:
            require(
                replica_sets is not None and len(replica_sets) >= 1,
                "a broker needs at least one partition",
            )
            transport = InProcessTransport(replica_sets)
        else:
            require(
                replica_sets is None,
                "pass replica_sets or transport, not both",
            )
        self.transport = transport
        self.stats = BrokerStats()
        #: Sizes of submitted-but-ungathered batches, FIFO — the broker
        #: records them at submit so gathers can never be mis-paired.
        self._inflight_sizes: deque[int] = deque()

    @property
    def num_partitions(self) -> int:
        """Partition count behind this broker."""
        return self.transport.num_partitions

    @property
    def replica_sets(self) -> "list[ReplicaSet]":
        """The partitions, when they live in this process.

        Raises:
            RuntimeError: under a cross-process transport — the replica
                sets live in the workers; use the transport's control
                messages (``health``, ``prune``) instead, and
                :meth:`process_batch` to route events.
        """
        local = self.transport.local_replica_sets
        if local is None:
            raise RuntimeError(
                "replica sets are not local under this transport; use "
                "transport.health() / transport.prune() control messages "
                "(and process_batch, not process_event, to route events)"
            )
        return local

    def process_event(
        self, event: EdgeEvent, now: float | None = None
    ) -> tuple[list[Recommendation], float]:
        """Route one live edge through the local partitions, boxed.

        The per-event *reference*: a plain loop over the replica sets'
        ``ingest`` (``on_edge`` per detector, one boxed
        :class:`Recommendation` per candidate), which the equivalence
        suites and E24's ``verify.py`` compare the batched path against.
        No ``batch_size`` reaches it — streams, the consumer and replay
        all go through :meth:`process_batch`, one-event batches included
        — and it never crosses a process boundary: under a worker
        transport :attr:`replica_sets` raises.

        Returns the gathered candidates and the virtual fan-out latency
        (the slowest partition's ack, since the gather barrier waits for
        everyone).  ``now`` is the broker's processing clock, forwarded to
        the detectors for freshness evaluation.

        Partitions whose replicas are all down lose the event — the broker
        keeps serving the healthy shards, trading completeness for
        availability exactly like the production system would.
        """
        from repro.cluster.replica import AllReplicasDown

        replica_sets = self.replica_sets
        gathered: list[Recommendation] = []
        worst_latency = 0.0
        self.stats.events_routed += 1
        self.stats.fan_out_calls += len(replica_sets)
        for replica_set in replica_sets:
            try:
                local, latency = replica_set.ingest(event, now)
            except AllReplicasDown:
                self.stats.partitions_lost_events += 1
                continue
            worst_latency = max(worst_latency, latency)
            gathered.extend(local)
        self.stats.gather_results += len(gathered)
        return gathered, worst_latency

    def submit_batch(self, batch: EventBatch, now: float | None = None) -> None:
        """Fan a columnar micro-batch out without awaiting results.

        One fan-out call per partition per batch (pipelined RPC
        accounting).  Pair each submit with one :meth:`gather_batch`;
        submits may be stacked ahead of the gathers when the transport
        pipelines (the worker transport does, the in-process one degrades
        to synchronous execution at submit time).
        """
        self.stats.events_routed += len(batch)
        self.stats.fan_out_calls += self.transport.num_partitions
        self._inflight_sizes.append(len(batch))
        self.transport.submit_batch(batch, now)

    def gather_batch(self) -> tuple[list[RecommendationBatch], float]:
        """Gather the oldest outstanding batch's replies.

        The batch's size was recorded at submit, so a lost partition is
        charged the right event count.

        Returns one columnar :class:`~repro.core.recommendation
        .RecommendationBatch` per answering partition, in partition order
        (each holds that shard's trigger groups in event order; partitions
        own disjoint A's, so the gather is plain concatenation — the
        recipient columns are never unboxed in flight), plus the slowest
        partition's ack latency.  Callers that need per-event attribution
        regroup with :meth:`~repro.core.recommendation.RecommendationBatch
        .by_event`.  Partitions whose replicas are all down — or whose
        worker process died — lose the whole batch.
        """
        require(len(self._inflight_sizes) > 0, "gather without a submit")
        n = self._inflight_sizes.popleft()
        gathered: list[RecommendationBatch] = []
        worst_latency = 0.0
        for reply in self.transport.gather_batch():
            if reply.lost:
                self.stats.partitions_lost_events += n
                continue
            worst_latency = max(worst_latency, reply.latency)
            gathered.append(reply.recommendations)
            self.stats.gather_results += len(reply.recommendations)
        return gathered, worst_latency

    def process_batch(
        self, batch: EventBatch, now: float | None = None
    ) -> tuple[list[RecommendationBatch], float]:
        """Route a columnar micro-batch through the whole cluster.

        Submit to every partition, then gather — under a worker transport
        the partitions process the batch genuinely in parallel and the
        gather barrier waits for the slowest one, matching how production
        brokers pipeline.  ``stats.fan_out_calls`` grows per batch instead
        of per event.
        """
        self.submit_batch(batch, now)
        return self.gather_batch()

    def query_audience(self, target: int, now: float) -> tuple[list[int], float]:
        """Fan a read-only audience query out to all partitions and merge."""
        audience: list[int] = []
        worst_latency = 0.0
        for local, latency in self.transport.query_audience(target, now):
            worst_latency = max(worst_latency, latency)
            audience.extend(local)
        return sorted(audience), worst_latency
