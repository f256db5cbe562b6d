"""The transport layer between a broker and its partitions.

The paper's final design is "a fairly standard partitioned, replicated
architecture with coordination handled by brokers that fan-out queries and
gather results".  Until this layer existed, that fan-out was *simulated*:
the broker called every partition's replica set directly inside one Python
process and summed sampled virtual latencies — which measures a fan-out
penalty, never a speedup.  :class:`PartitionTransport` makes the call path
pluggable:

* :class:`InProcessTransport` — the original direct-call path with
  :class:`~repro.cluster.rpc.SimulatedChannel` latency sampling.  Behavior
  preserving; still the default, and the right lane for tests and for the
  discrete-event latency simulation.
* :class:`WorkerTransport` — each partition's replica set hosted in a
  ``multiprocessing`` worker behind one :class:`~repro.cluster.shm.Wire`
  carrying the *columnar* wire format (:mod:`repro.core.wire` — flat
  numpy columns, never boxed events).  Fan-out is asynchronous: the
  broker submits one batch to every partition and only then gathers, so
  partitions genuinely chew in parallel, and multiple batches may be
  submitted before the first gather (pipelining — the parent encodes
  batch *i+1* while the workers process batch *i*).  One protocol, one
  wire (``transport="shm"``), whose lane the host decides: where POSIX
  shared memory works, batches and candidate replies cross as *slab
  frames* — flat columns written once into per-worker
  ``multiprocessing.shared_memory`` ring buffers and decoded as zero-copy
  views on the other side — while control messages and any frame too
  large for a ring slot fall back to the wire's mp queues behind an
  in-ring marker.  The ring stays the sole ordering channel and oversized
  bursts degrade instead of failing (the fallback rate is counted in
  ``wire_stats()``); a host without ``/dev/shm`` runs every message down
  the queues.

Both transports speak the same tiny protocol: submit/gather for event
batches, plus health / prune / audience control messages, plus graceful
``close``.  A worker that dies mid-batch is detected at gather time, its
partition's events are reported as lost (the broker counts them in
``partitions_lost_events``), and the transport keeps serving the healthy
partitions — the same availability-over-completeness trade the replica
layer makes.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.cluster.shm import Wire, sweep_segments
from repro.core.batch import EventBatch
from repro.core.checkpoint import (
    dynamic_index_arrays,
    restore_dynamic_arrays,
)
from repro.core.recommendation import RecommendationBatch
from repro.core.wire import (
    FRAME_LOST,
    decode_event_batch,
    decode_recommendation_batch,
    encode_event_batch,
    encode_recommendation_batch,
    frame_event_batch,
    frame_partition_reply,
    table_payload_from_frame,
    write_frame,
)
from repro.util.procpool import (
    WorkerHandle,
    default_start_method,
    spawn_worker,
    stop_workers,
    wire_stats,
)
from repro.util.validation import require

if TYPE_CHECKING:  # circular at runtime: replica imports nothing from here
    import numpy as np

    from repro.cluster.replica import ReplicaSet
    from repro.graph.static_index import StaticFollowerIndex

__all__ = [
    "TRANSPORTS",
    "PartitionTransport",
    "PartitionReply",
    "ReplicaHealthSnapshot",
    "PartitionHealthSnapshot",
    "InProcessTransport",
    "WorkerTransport",
    "default_start_method",
]

#: Transport names accepted by ClusterConfig / the CLI: direct calls, or
#: one worker per partition behind a :class:`~repro.cluster.shm.Wire`.
TRANSPORTS = ("inprocess", "shm")


@dataclass(frozen=True)
class PartitionReply:
    """One partition's answer to a submitted batch (or its loss).

    ``recommendations`` is the partition's one candidate batch for the
    event batch (its trigger groups, in event order).  ``lost`` is True
    when the partition could not process the batch at all — every replica
    down (in-process) or the worker process dead (cross-process) — and
    then ``recommendations`` is ``None``.
    """

    partition_id: int
    recommendations: RecommendationBatch | None
    latency: float
    lost: bool = False


@dataclass(frozen=True)
class ReplicaHealthSnapshot:
    """One replica's vital signs, as reported over the transport."""

    name: str
    available: bool
    events_processed: int
    missed_events: int
    dynamic_edges: int
    #: The replica's D bytes, or 0 when an earlier replica of the same
    #: process already reported that (shared) D: sums count each copy once.
    dynamic_memory_bytes: int
    static_memory_bytes: int
    channel_failures: int


@dataclass(frozen=True)
class PartitionHealthSnapshot:
    """One partition's health: worker liveness, backlog, replica signs.

    ``worker_alive`` is always True for the in-process transport;
    ``backlog`` is the partition's pending request-queue depth (0 when the
    transport is synchronous).  ``replicas`` is empty when the worker is
    dead — there is nobody left to ask.
    """

    partition_id: int
    worker_alive: bool
    backlog: int
    replicas: tuple[ReplicaHealthSnapshot, ...]


@runtime_checkable
class PartitionTransport(Protocol):
    """What a broker needs from its partition fleet.

    Submit and gather are split so fan-out can be asynchronous: a
    ``submit_batch`` enqueues work on *every* partition before any result
    is awaited, and each ``gather_batch`` returns one
    :class:`PartitionReply` per partition for the oldest outstanding
    submit (FIFO).  Control messages (health, prune, audience reads)
    require no batches outstanding.
    """

    @property
    def num_partitions(self) -> int:
        """Partition count behind this transport."""
        ...

    @property
    def local_replica_sets(self) -> "list[ReplicaSet] | None":
        """The replica sets when they live in this process, else None."""
        ...

    def submit_batch(self, batch: EventBatch, now: float | None = None) -> None:
        """Fan a columnar micro-batch out to every partition."""
        ...

    def gather_batch(self) -> list[PartitionReply]:
        """Collect every partition's reply for the oldest submitted batch."""
        ...

    def query_audience(
        self, target: int, now: float
    ) -> list[tuple[list[int], float]]:
        """Read-only audience query on every *reachable* partition."""
        ...

    def health(self) -> list[PartitionHealthSnapshot]:
        """Per-partition health control message."""
        ...

    def prune(self, now: float) -> int:
        """Evict expired entries from every distinct D; total removed
        (one count per copy: per process, not per replica)."""
        ...

    def checkpoint(self) -> "dict[str, np.ndarray] | None":
        """One reachable replica's complete D as checkpoint arrays.

        Every replica reads the full D (the paper's replication design),
        so any available copy is the fleet's.  None when no replica is
        reachable.
        """
        ...

    def load_dynamic(self, arrays: "dict[str, np.ndarray]") -> int:
        """Restore checkpoint arrays into every distinct D once; edge
        count."""
        ...

    def reload_static(
        self, shards: "dict[int, StaticFollowerIndex]"
    ) -> int:
        """Hot-swap per-partition S shards in place; partitions reloaded."""
        ...

    def backlog(self) -> int:
        """Pending submitted-but-ungathered events across partitions."""
        ...

    def close(self) -> None:
        """Release transport resources (idempotent)."""
        ...


def _distinct_indexes(replica_sets: "list[ReplicaSet]") -> list:
    """Each D behind *replica_sets* once, in replica order: replicas in
    one address space share one D, and control messages act on a copy,
    not on a replica."""
    return list(
        dict.fromkeys(
            replica.engine.dynamic_index
            for replica_set in replica_sets
            for replica in replica_set.replicas
        )
    )


def _replica_set_health(
    replica_set: "ReplicaSet", charged: set
) -> tuple[ReplicaHealthSnapshot, ...]:
    """Collect one replica set's health (runs wherever the replicas live).

    A D is charged to the first replica that reports it (*charged* holds
    those already counted in this address space), so summing
    ``dynamic_memory_bytes`` counts every distinct copy once.
    """
    out = []
    for i, (replica, channel) in enumerate(
        zip(replica_set.replicas, replica_set.channels)
    ):
        engine = replica.engine
        index = engine.dynamic_index
        dynamic_bytes = 0 if index in charged else index.memory_bytes()
        charged.add(index)
        out.append(
            ReplicaHealthSnapshot(
                name=replica.name,
                available=channel.available,
                events_processed=replica.events_processed(),
                missed_events=replica_set.missed_events[i],
                dynamic_edges=index.num_edges,
                dynamic_memory_bytes=dynamic_bytes,
                static_memory_bytes=engine.static_index.memory_bytes(),
                channel_failures=channel.stats.failures,
            )
        )
    return tuple(out)


class InProcessTransport:
    """The direct-call transport: partitions live in this process.

    ``submit_batch`` executes the work synchronously (there is no
    concurrency to exploit in one interpreter) and parks the replies;
    ``gather_batch`` hands them back FIFO, so the submit/gather protocol
    — including pipelined submits — behaves identically to the worker
    transport, just without the parallelism.  Virtual latency keeps
    coming from each replica's
    :class:`~repro.cluster.rpc.SimulatedChannel`.
    """

    def __init__(self, replica_sets: "list[ReplicaSet]") -> None:
        require(
            len(replica_sets) >= 1, "a transport needs at least one partition"
        )
        self.replica_sets = list(replica_sets)
        self._pending_batches: deque[list[PartitionReply]] = deque()

    @property
    def num_partitions(self) -> int:
        return len(self.replica_sets)

    @property
    def local_replica_sets(self) -> "list[ReplicaSet]":
        return self.replica_sets

    # ------------------------------------------------------------------
    # Batch lane
    # ------------------------------------------------------------------

    def submit_batch(self, batch: EventBatch, now: float | None = None) -> None:
        from repro.cluster.replica import AllReplicasDown

        replies: list[PartitionReply] = []
        for replica_set in self.replica_sets:
            try:
                recommendations, latency = replica_set.ingest_batch(batch, now)
            except AllReplicasDown:
                replies.append(
                    PartitionReply(replica_set.partition_id, None, 0.0, lost=True)
                )
                continue
            replies.append(
                PartitionReply(replica_set.partition_id, recommendations, latency)
            )
        self._pending_batches.append(replies)

    def gather_batch(self) -> list[PartitionReply]:
        require(len(self._pending_batches) > 0, "gather without a submit")
        return self._pending_batches.popleft()

    # ------------------------------------------------------------------
    # Control messages
    # ------------------------------------------------------------------

    def query_audience(
        self, target: int, now: float
    ) -> list[tuple[list[int], float]]:
        from repro.cluster.replica import AllReplicasDown

        out: list[tuple[list[int], float]] = []
        for replica_set in self.replica_sets:
            try:
                out.append(replica_set.query_audience(target, now))
            except AllReplicasDown:
                continue
        return out

    def health(self) -> list[PartitionHealthSnapshot]:
        charged: set = set()
        return [
            PartitionHealthSnapshot(
                partition_id=replica_set.partition_id,
                worker_alive=True,
                backlog=0,
                replicas=_replica_set_health(replica_set, charged),
            )
            for replica_set in self.replica_sets
        ]

    def prune(self, now: float) -> int:
        return sum(
            index.prune_expired(now)
            for index in _distinct_indexes(self.replica_sets)
        )

    def checkpoint(self) -> "dict | None":
        for replica_set in self.replica_sets:
            for replica, channel in zip(
                replica_set.replicas, replica_set.channels
            ):
                if channel.available:
                    return dynamic_index_arrays(replica.engine.dynamic_index)
        return None

    def load_dynamic(self, arrays: dict) -> int:
        # Restoring re-inserts edges: a shared D must be restored once.
        edges = 0
        for index in _distinct_indexes(self.replica_sets):
            edges = restore_dynamic_arrays(index, arrays)
        return edges

    def reload_static(self, shards: dict) -> int:
        reloaded = 0
        for replica_set in self.replica_sets:
            shard = shards.get(replica_set.partition_id)
            if shard is None:
                continue
            for replica in replica_set.replicas:
                replica.reload_static(shard)
            reloaded += 1
        return reloaded

    def backlog(self) -> int:
        # Submitted-but-ungathered replies: the synchronous analogue of
        # the worker transport's request-queue depth, so backlog-driven
        # control behaves uniformly across both transports.
        return len(self._pending_batches)

    def close(self) -> None:  # nothing to release
        return None


# ----------------------------------------------------------------------
# Worker transport
# ----------------------------------------------------------------------


def _control_reply(replica_set, message: tuple) -> tuple | None:
    """One non-batch message's reply tuple, or None for a stop message."""
    from repro.cluster.replica import AllReplicasDown

    kind = message[0]
    if kind == "audience":
        try:
            audience, latency = replica_set.query_audience(
                message[1], message[2]
            )
        except AllReplicasDown:
            return ("lost", None, 0.0)
        return ("ok", audience, latency)
    if kind == "health":
        return ("ok", _replica_set_health(replica_set, set()), 0.0)
    if kind == "prune":
        removed = sum(
            index.prune_expired(message[1])
            for index in _distinct_indexes([replica_set])
        )
        return ("ok", removed, 0.0)
    if kind == "checkpoint":
        # Every replica reads the complete D, so any available one's copy
        # is the fleet's (the durability tier's snapshot capture).
        for replica, channel in zip(
            replica_set.replicas, replica_set.channels
        ):
            if channel.available:
                return (
                    "ok",
                    dynamic_index_arrays(replica.engine.dynamic_index),
                    0.0,
                )
        return ("lost", None, 0.0)
    if kind == "load_dynamic":
        edges = 0
        for index in _distinct_indexes([replica_set]):
            edges = restore_dynamic_arrays(index, message[1])
        return ("ok", edges, 0.0)
    if kind == "reload_static":
        # In-place S hot reload: the replica swaps its shard reference
        # atomically; D and in-flight detection state are untouched.
        for replica in replica_set.replicas:
            replica.reload_static(message[1])
        return ("ok", len(replica_set.replicas), 0.0)
    return None  # stop


def _frame_request(mem, message: tuple) -> int | None:
    """A ``("batch", payload, now)`` request as a slab frame."""
    return frame_event_batch(mem, message[1], message[2])


def _request_from_frame(frame: tuple) -> tuple:
    """Invert :func:`_frame_request`; the columns stay views of the slot."""
    _kind, cols, _blobs, now, _latency, _aux = frame
    return ("batch", tuple(cols), now)


def _frame_reply(mem, reply: tuple) -> int | None:
    """A batch reply — ``("ok", payload, latency)`` or lost — as a frame."""
    if reply[0] == "lost":
        return write_frame(mem, FRAME_LOST)
    return frame_partition_reply(mem, reply[1], reply[2])


def _reply_from_frame(frame: tuple) -> tuple:
    """Invert :func:`_frame_reply`."""
    kind, cols, blobs, _now, latency, _aux = frame
    if kind == FRAME_LOST:
        return ("lost", None, 0.0)
    return ("ok", table_payload_from_frame(cols, blobs), latency)


def _partition_worker_main(replica_set, wire: Wire) -> None:
    """One partition worker: drain requests until a stop message.

    Batches arrive and leave in the columnar wire format; control
    messages are tiny tuples.  Which lane of the wire a message took is
    the wire's business: a framed batch decodes as **zero-copy views of
    the request slot** — safe because every index copies on insert and
    the detector emits fresh arrays, and the worker's D lets go of the
    batch's position (its kept scans too), so nothing retains the
    slab bytes past ``ingest_batch`` — and the slot is released before
    the reply is encoded.  A ``None`` from the wire means the parent
    died: exit quietly (daemon semantics).  Any unexpected exception
    kills the worker — the parent detects the death at gather time and
    marks the partition's events lost, exactly like a crashed machine.
    """
    from repro.cluster.replica import AllReplicasDown

    indexes = _distinct_indexes([replica_set])
    while True:
        message = wire.recv(_request_from_frame, copy=False)
        if message is None:
            return
        if message[0] == "batch":
            try:
                recommendations, latency = replica_set.ingest_batch(
                    decode_event_batch(message[1]), message[2]
                )
            except AllReplicasDown:
                recommendations = None
            for index in indexes:
                index.leave()
            del message  # no slab views may survive release
            wire.release()
            if recommendations is None:
                reply = ("lost", None, 0.0)
            else:
                reply = ("ok", encode_recommendation_batch(recommendations), latency)
            framer = _frame_reply
        else:
            reply, framer = _control_reply(replica_set, message), None
            if reply is None:
                return  # stop: exit without a reply (close never gathers)
        if not wire.send(reply, framer):
            return


class WorkerTransport:
    """Partition servers hosted in ``multiprocessing`` workers.

    One worker per partition, each owning its replica set (S shard + one
    D its replicas share: the paper's per-machine copy) behind one
    :class:`~repro.cluster.shm.Wire`.  The parent never touches the
    replica sets after startup — its references
    (under the ``fork`` start method) are stale copies; all state lives
    behind the wires.

    Each wire is ring-fronted where the host has shared memory (event
    batches and candidate replies then cross as slab frames) and
    queue-only where it has not; see :class:`~repro.cluster.shm.Wire` for
    the lanes and their fallback.

    Fan-out/gather is asynchronous and pipelined: ``submit_batch`` posts
    the (already encoded, shared) payload to every live worker and
    returns; several submits may be outstanding, and each
    ``gather_batch`` resolves the oldest one.  Replies per worker are FIFO
    because each worker is serial, so no sequence numbers are needed.
    On the ring wire pipelining is *bounded by the ring capacity*: at
    most ``wire.slots`` submits may be outstanding (deeper stacking would
    block the parent on a full request ring while the worker blocks on a
    full reply ring — a deadlock).  The 8 slots of
    :data:`~repro.cluster.shm.DEFAULT_SLOTS` comfortably cover the
    pipeline depths the driver uses.

    Failure semantics: a dead worker's outstanding and future batches are
    reported ``lost`` (the broker counts the events); the transport keeps
    serving healthy partitions.  Control messages require no outstanding
    batches (they share the reply lane).

    Every ring segment is created (owned) by the parent: ``close()``
    unlinks them all — including the slabs of workers that died
    mid-batch (:mod:`repro.cluster.shm` covers the parent's own death).
    """

    def __init__(self, replica_sets: "list[ReplicaSet]") -> None:
        require(
            len(replica_sets) >= 1, "a transport needs at least one partition"
        )
        context = multiprocessing.get_context(default_start_method())
        self._workers: list[WorkerHandle] = []
        self._segment_names: list[str] = []
        self._closed = False
        #: FIFO of outstanding submits: one {partition_id -> submitted} plus
        #: the batch kind, matched positionally by the gathers.
        self._outstanding: deque[tuple[str, dict[int, bool]]] = deque()
        for replica_set in replica_sets:
            wire = Wire.create(context)
            self._segment_names += wire.segment_names
            # spawn_worker hands the replica set over in a one-shot holder
            # the parent clears right after start(): holding P D copies in
            # the broker process would double the fleet's memory.
            self._workers.append(
                spawn_worker(
                    context,
                    replica_set.partition_id,
                    _partition_worker_main,
                    replica_set,
                    name=f"repro-partition-{replica_set.partition_id}",
                    wire=wire,
                )
            )
        #: Most submits that may be outstanding: the ring's slot count
        #: (see the class docstring); unbounded (None) on a queue-only wire.
        self._max_outstanding = self._workers[0].wire.slots or None

    @property
    def num_partitions(self) -> int:
        return len(self._workers)

    @property
    def local_replica_sets(self) -> None:
        """The replica sets live in the workers, not this process."""
        return None

    # ------------------------------------------------------------------
    # Submit / gather plumbing
    # ------------------------------------------------------------------

    def _submit(self, kind: str, message: tuple) -> None:
        """Fan one identical message out to every worker."""
        bound = self._max_outstanding
        if bound is not None:
            require(
                len(self._outstanding) < bound,
                f"worker pipelining is bounded by its ring capacity "
                f"({bound} slots); gather before submitting deeper",
            )
        self._submit_each(
            kind, dict.fromkeys((w.key for w in self._workers), message)
        )

    def _submit_each(self, kind: str, messages: dict[int, tuple]) -> None:
        """Fan out *per-partition* payloads.

        Workers absent from *messages* are skipped — their gather slot
        reports None, same as a dead worker's.
        """
        require(not self._closed, "transport is closed")
        submitted: dict[int, bool] = {}
        for worker in self._workers:
            message = messages.get(worker.key)
            if message is None or not worker.alive():
                submitted[worker.key] = False
                continue
            framer = _frame_request if message[0] == "batch" else None
            submitted[worker.key] = worker.send(message, framer)
        self._outstanding.append((kind, submitted))

    def _gather(self, kind: str) -> list[tuple[int, tuple | None]]:
        require(len(self._outstanding) > 0, "gather without a submit")
        expected_kind, submitted = self._outstanding.popleft()
        require(
            expected_kind == kind,
            f"gather kind mismatch: expected {expected_kind}, got {kind}",
        )
        out: list[tuple[int, tuple | None]] = []
        for worker in self._workers:
            if not submitted.get(worker.key, False):
                out.append((worker.key, None))
                continue
            out.append((worker.key, worker.recv(_reply_from_frame)))
        return out

    # ------------------------------------------------------------------
    # Batch lane
    # ------------------------------------------------------------------

    def submit_batch(self, batch: EventBatch, now: float | None = None) -> None:
        # Encode once; every worker's wire frames or pickles the same arrays.
        self._submit("batch", ("batch", encode_event_batch(batch), now))

    def gather_batch(self) -> list[PartitionReply]:
        replies: list[PartitionReply] = []
        for partition_id, raw in self._gather("batch"):
            if raw is None or raw[0] == "lost":
                replies.append(PartitionReply(partition_id, None, 0.0, lost=True))
                continue
            recommendations = decode_recommendation_batch(raw[1])
            replies.append(PartitionReply(partition_id, recommendations, raw[2]))
        return replies

    # ------------------------------------------------------------------
    # Control messages
    # ------------------------------------------------------------------

    def _control(self, message: tuple) -> list[tuple[int, tuple | None]]:
        require(
            len(self._outstanding) == 0,
            "control messages require no outstanding batches",
        )
        self._submit(message[0], message)
        return self._gather(message[0])

    def query_audience(
        self, target: int, now: float
    ) -> list[tuple[list[int], float]]:
        out: list[tuple[list[int], float]] = []
        for _partition_id, raw in self._control(("audience", target, now)):
            if raw is None or raw[0] == "lost":
                continue
            out.append((raw[1], raw[2]))
        return out

    def health(self) -> list[PartitionHealthSnapshot]:
        backlogs = {
            worker.key: worker.wire.backlog() for worker in self._workers
        }
        out: list[PartitionHealthSnapshot] = []
        for partition_id, raw in self._control(("health",)):
            alive = raw is not None
            out.append(
                PartitionHealthSnapshot(
                    partition_id=partition_id,
                    worker_alive=alive,
                    backlog=backlogs.get(partition_id, 0),
                    replicas=raw[1] if alive else (),
                )
            )
        return out

    def prune(self, now: float) -> int:
        removed = 0
        for _partition_id, raw in self._control(("prune", now)):
            if raw is not None:
                removed += raw[1]
        return removed

    def checkpoint(self) -> "dict | None":
        """One live worker's complete D (every partition holds it all).

        Routed to a single worker via :meth:`_submit_each` — fanning the
        capture to the whole fleet would serialize P identical copies of
        D over the wire for no information gain.
        """
        require(
            len(self._outstanding) == 0,
            "control messages require no outstanding batches",
        )
        target = next(
            (worker.key for worker in self._workers if worker.alive()), None
        )
        if target is None:
            return None
        self._submit_each("checkpoint", {target: ("checkpoint",)})
        for _partition_id, raw in self._gather("checkpoint"):
            if raw is not None and raw[0] == "ok":
                return raw[1]
        return None

    def load_dynamic(self, arrays: dict) -> int:
        edges = 0
        for _partition_id, raw in self._control(("load_dynamic", arrays)):
            if raw is not None and raw[0] == "ok":
                # Every worker restores the same complete D once; any
                # single reply carries the fleet-wide edge count.
                edges = max(edges, raw[1])
        return edges

    def reload_static(self, shards: dict) -> int:
        require(
            len(self._outstanding) == 0,
            "control messages require no outstanding batches",
        )
        self._submit_each(
            "reload_static",
            {
                partition_id: ("reload_static", shard)
                for partition_id, shard in shards.items()
            },
        )
        reloaded = 0
        for _partition_id, raw in self._gather("reload_static"):
            if raw is not None and raw[0] == "ok":
                reloaded += 1
        return reloaded

    def backlog(self) -> int:
        """Pending request depth (queue or ring) summed across live workers."""
        return sum(
            worker.wire.backlog()
            for worker in self._workers
            if not worker.dead
        )

    def wire_stats(self) -> dict[str, float]:
        """Frame/fallback counters and slab occupancy summed over workers
        (:func:`repro.util.procpool.wire_stats`)."""
        return wire_stats(self._workers)

    @property
    def pending_gathers(self) -> int:
        """Outstanding submitted-but-ungathered requests (pipelining depth)."""
        return len(self._outstanding)

    def workers_alive(self) -> int:
        """Workers still running (dead ones stay dead until close)."""
        return sum(worker.alive() for worker in self._workers)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop, join, and reap every worker (idempotent).

        Graceful path first (a stop message each, bounded join), then
        terminate stragglers so a wedged worker can never hang the parent.
        ``stop_workers`` closes each worker's wire after its join — dead
        workers included — which unlinks its ring segments; the explicit
        sweep is the backstop for a fleet that only half spawned.
        """
        if self._closed:
            return
        self._closed = True
        stop_workers(self._workers)
        sweep_segments(self._segment_names)

    def __del__(self) -> None:  # best-effort backstop; close() is the API
        try:
            self.close()
        except Exception:
            pass


