"""The detection consumer: broker-side processing between queue stages.

Consumes edge events off the transport queue, runs the cluster's fan-out /
detection / gather (measuring its *real* wall-clock cost), and publishes
the resulting candidate batch to the downstream push queue after an
equivalent amount of *virtual* time.  This is the trick that lets the
end-to-end simulation honestly combine simulated queue seconds with
measured detection milliseconds.

The consumer drains up to ``batch_size`` events — or whatever has
accumulated after ``max_wait`` virtual seconds — into one columnar
:class:`~repro.core.batch.EventBatch` and invokes the cluster once per
batch; ``batch_size`` is only a size, so at 1 (the default) that is a
one-event batch through the same flush.  The time an event spends waiting
for a larger batch to fill is attributed to a dedicated ``path:batching``
latency stage downstream, so the throughput-for-latency trade stays
visible in the breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster
from repro.core.batch import EventBatch
from repro.core.events import EdgeEvent
from repro.core.recommendation import RecommendationBatch
from repro.delivery.notifier import PushNotification
from repro.delivery.pipeline import DeliveryPipeline, release_window
from repro.sim.des import DiscreteEventSimulator
from repro.sim.metrics import LatencyBreakdown
from repro.streaming.queue import MessageQueue
from repro.streaming.window import FlushWindow

if TYPE_CHECKING:  # avoid ops/scoring imports at runtime for these hooks
    from repro.delivery.scoring import TopKPerUserBuffer
    from repro.ops.admission import AdmissionController
    from repro.serving.cache import ServingCache


@dataclass(frozen=True)
class CandidateBatch:
    """The candidates one edge event produced, plus its processing costs.

    Carrying the measured detection time, the virtual RPC latency, and the
    micro-batching wait lets the delivery end decompose each notification's
    end-to-end latency exactly (total = queue hops + batching + detection
    + rpc).

    ``recommendations`` is a columnar
    :class:`~repro.core.recommendation.RecommendationBatch` — the delivery
    end feeds it straight into ``offer_batch`` so candidates stay unboxed
    across the push queue.
    """

    origin_event: EdgeEvent
    recommendations: RecommendationBatch
    detection_seconds: float = 0.0
    rpc_seconds: float = 0.0
    #: Virtual seconds the origin event waited for its micro-batch to flush.
    batching_seconds: float = 0.0
    #: True when the consumer's batch size was above 1; lets downstream
    #: accounting record a (possibly zero) path:batching sample for every
    #: batched recommendation without inventing the stage at size 1.
    micro_batched: bool = False


class DetectionConsumer(FlushWindow[EdgeEvent]):
    """Edge events in, candidate batches out, detection time accounted.

    An optional admission controller gates the broker: when a burst
    exceeds the configured ingest budget, excess events are shed (and
    counted) instead of building unbounded queue backlog — the defensive
    posture behind the paper's fixed O(10^4)/s design target.

    Events leave through one flush path whatever the size
    (:class:`~repro.streaming.window.FlushWindow`): ``batch_size == 1``
    (the default) flushes a one-event batch on every arrival; larger
    sizes wait for the batch to fill, with a ``max_wait`` flush timer so
    a trickling stream is never stalled indefinitely.
    """

    def __init__(
        self,
        sim: DiscreteEventSimulator,
        cluster: Cluster,
        output: MessageQueue[CandidateBatch],
        breakdown: LatencyBreakdown,
        admission: "AdmissionController | None" = None,
        batch_size: int = 1,
        max_wait: float = 0.05,
    ) -> None:
        super().__init__(sim, batch_size, max_wait)
        self._cluster = cluster
        self._output = output
        self._breakdown = breakdown
        self._admission = admission
        #: Durability tap: called ``(batch, flushed_at)`` with every event
        #: batch immediately *before* it enters the cluster, so the WAL
        #: prefix is exactly the set of ingested batches and replay runs
        #: them through the same batched ingest.
        self.wal_tap = None
        #: Candidate batches detected but still in flight to the push
        #: queue (the virtual detection+rpc delay) — part of the
        #: topology's quiescence check for snapshots.
        self._inflight_publishes = 0
        self.events_consumed = 0
        self.events_shed = 0
        self.candidates_produced = 0
        #: Detection round-trips issued to the cluster (one per flush) —
        #: the deterministic cost axis of the overload frontier bench.
        self.cluster_calls = 0
        #: Last transport backlog observed (per-event when admission is
        #: configured, otherwise whenever :meth:`sample_backlog` runs).
        self.last_backlog = 0

    def sample_backlog(self) -> int:
        """Sample (and remember) the transport's real request backlog."""
        self.last_backlog = self._cluster.broker.transport.backlog()
        return self.last_backlog

    def __call__(
        self, event: EdgeEvent, published_at: float, delivered_at: float
    ) -> None:
        """Queue-subscriber entry point."""
        if self._admission is not None:
            # The transport's real request-queue depth (0 on synchronous
            # transports) lets a backlog-gated controller shed on what the
            # partition fleet actually failed to drain, not just a model.
            # Sampled uniformly on every transport so admission, the
            # monitor, and the adaptive controller all see one signal.
            backlog = self.sample_backlog()
            if not self._admission.admit(delivered_at, backlog=backlog):
                self.events_shed += 1
                return
        self._add(event, delivered_at)

    @property
    def pending_events(self) -> int:
        """Events buffered and not yet flushed to the cluster."""
        return len(self._pending)

    @property
    def inflight_publishes(self) -> int:
        """Candidate batches scheduled but not yet on the push queue."""
        return self._inflight_publishes

    def _publish(self, batch: CandidateBatch) -> None:
        """Detection-delay timer callback: hand off to the push queue."""
        self._inflight_publishes -= 1
        self._output.publish(batch)

    def _flush(
        self, buffered: list[tuple[EdgeEvent, float]], flushed_at: float
    ) -> None:
        """Run the buffered events through the cluster, as one batch."""
        batch = EventBatch.from_events([event for event, _ in buffered])
        if self.wal_tap is not None:
            self.wal_tap(batch, flushed_at)
        started = time.perf_counter()
        replies, rpc_latency = self._cluster.broker.process_batch(
            batch, now=flushed_at
        )
        detection_seconds = time.perf_counter() - started

        self.cluster_calls += 1
        self.events_consumed += len(buffered)
        self._breakdown.record("detection", detection_seconds)
        if rpc_latency:
            self._breakdown.record("rpc", rpc_latency)

        # The one place size 1 differs: nothing waited for a batch to
        # fill, so no batching stage is reported.
        micro_batched = self._batch_size > 1
        if micro_batched:
            for _event, delivered_at in buffered:
                self._breakdown.record("batching", flushed_at - delivered_at)
        # One candidate batch per triggering event: the push queue draws
        # one delay per item and the latency breakdown is per origin event.
        for i, recommendations in RecommendationBatch.by_event(replies):
            event, delivered_at = buffered[i]
            self.candidates_produced += len(recommendations)
            candidate_batch = CandidateBatch(
                event,
                recommendations,
                detection_seconds=detection_seconds,
                rpc_seconds=rpc_latency,
                batching_seconds=flushed_at - delivered_at,
                micro_batched=micro_batched,
            )
            # Every event in the batch waits for the whole batch's
            # detection and the shared fan-out ack (the slowest
            # partition's) before its candidates reach the push queue —
            # batching trades latency for throughput and the accounting
            # keeps that honest.
            self._inflight_publishes += 1
            self._sim.schedule_after(
                detection_seconds + rpc_latency,
                lambda b=candidate_batch: self._publish(b),
            )


class DeliveryCoalescer(FlushWindow[CandidateBatch]):
    """Push-queue consumer: merges candidate batches across a short window.

    The detection side amortizes per-event overhead by micro-batching;
    the delivery side deserves the same treatment.  Without coalescing,
    every origin event's candidates cross the funnel as their own
    ``offer_batch`` call — one funnel dispatch, one set of stage masks,
    one numpy fixed cost per event.  The coalescer buffers arriving
    :class:`CandidateBatch`es and flushes them as one merged
    :class:`~repro.core.recommendation.RecommendationBatch` when either

    * ``batch_size`` raw candidates have accumulated, or
    * ``max_wait`` virtual seconds have passed since the first buffered
      batch (a trickling stream is never stalled indefinitely),

    which is where a production push-queue consumer would sit.  Time a
    candidate spends waiting for its delivery batch is attributed to a
    dedicated ``path:delivery-batching`` latency stage, so the
    throughput-for-latency trade stays visible in the breakdown (the
    delivery-side mirror of the detection consumer's ``path:batching``).

    ``batch_size == 1`` (the default) is the same flush with a window of
    one: every arriving batch fills it, so it reaches the funnel on
    arrival and the ``path:delivery-batching`` stage never materializes.

    Note the semantic consequence of coalescing: the funnel sees the
    merged batch at the *flush* clock, so dedup windows, waking-hours
    checks, and fatigue budgets are evaluated up to ``max_wait`` seconds
    later than they would have been uncoalesced — the same trade the
    detection consumer makes with event timestamps.

    A *ranker* (:class:`~repro.delivery.scoring.TopKPerUserBuffer`) turns
    this into the ranked delivery configuration: candidates accumulate in
    the ranking buffer instead of hitting the funnel directly, and each
    coalescing-window flush releases only every user's top-k (by
    corroboration x freshness) into the funnel — the window doubles as
    the ranking window (at size 1 a degenerate one-batch window: the
    in-batch (recipient, candidate) dedup and per-user top-k still apply,
    there is just no cross-batch accumulation).  The funnel then sees the
    already-ranked survivors, so its "raw" count measures post-ranking
    volume.

    A *serving* cache (:class:`~repro.serving.cache.ServingCache` or its
    sharded wrapper) turns the flush into the pull tier's write path: the
    exact rows entering the funnel — the ranked window's released winners,
    or the merged raw batch when unranked — also merge into the per-user
    materialized top-k that point queries read.  The tap is downstream
    accounting only; it never changes what the funnel sees.
    """

    def __init__(
        self,
        sim: DiscreteEventSimulator,
        delivery: DeliveryPipeline,
        breakdown: LatencyBreakdown,
        notifications: list[PushNotification],
        batch_size: int = 1,
        max_wait: float = 0.05,
        ranker: "TopKPerUserBuffer | None" = None,
        serving: "ServingCache | None" = None,
    ) -> None:
        super().__init__(sim, batch_size, max_wait)
        self._delivery = delivery
        self._breakdown = breakdown
        self._notifications = notifications
        self._ranker = ranker
        self._serving = serving
        self.batches_coalesced = 0
        self.flushes = 0

    def __call__(
        self, batch: CandidateBatch, published_at: float, delivered_at: float
    ) -> None:
        """Queue-subscriber entry point."""
        self._breakdown.record("queue:push", delivered_at - published_at)
        self._add(batch, delivered_at, weight=len(batch.recommendations))

    @property
    def pending_batches(self) -> int:
        """Candidate batches buffered and not yet flushed to the funnel."""
        return len(self._pending)

    @property
    def pending_candidates(self) -> int:
        """Raw candidates buffered and not yet flushed to the funnel."""
        return self._pending_weight

    def _flush(
        self, buffered: list[tuple[CandidateBatch, float]], flushed_at: float
    ) -> None:
        """Run the buffered batches through the funnel, as one batch."""
        self.flushes += 1
        self.batches_coalesced += len(buffered)
        # The one place size 1 differs: nothing waited for a window to
        # fill, so no delivery-batching stage is reported.
        coalesced = self._batch_size > 1
        for batch, delivered_at in buffered:
            self._account(batch, delivered_at, flushed_at, coalesced)
        merged = RecommendationBatch.concat_all(
            batch.recommendations for batch, _ in buffered
        )
        self._notifications.extend(
            release_window(
                merged, flushed_at, self._delivery, self._ranker, self._serving
            )
        )

    def _account(
        self,
        batch: CandidateBatch,
        delivered_at: float,
        flushed_at: float,
        coalesced: bool,
    ) -> None:
        """Record the per-recommendation latency decomposition.

        ``total = queue hops + batching + detection/rpc [+ delivery
        batching]`` — measured to the moment the candidates actually
        enter the funnel, so coalescing honestly shows up in the
        end-to-end percentiles.
        """
        total = flushed_at - batch.origin_event.created_at
        processing = batch.detection_seconds + batch.rpc_seconds
        batching = batch.batching_seconds
        queue_path = (
            delivered_at - batch.origin_event.created_at - processing - batching
        )
        wait = flushed_at - delivered_at
        breakdown = self._breakdown
        for _ in range(len(batch.recommendations)):
            breakdown.record_total(total)
            breakdown.record("path:queue", queue_path)
            breakdown.record("path:processing", processing)
            if batch.micro_batched:
                # Zero-wait samples (the size-trigger's final event) count
                # too, or the stage's percentiles would overstate the
                # typical batching delay.
                breakdown.record("path:batching", batching)
            if coalesced:
                breakdown.record("path:delivery-batching", wait)
