"""The detection consumer: broker-side processing between queue stages.

Consumes edge events off the transport queue, runs the cluster's fan-out /
detection / gather (measuring its *real* wall-clock cost), and publishes
the resulting candidate batch to the downstream push queue after an
equivalent amount of *virtual* time.  This is the trick that lets the
end-to-end simulation honestly combine simulated queue seconds with
measured detection milliseconds.

With ``batch_size > 1`` the consumer micro-batches: it drains up to
``batch_size`` events — or whatever has accumulated after ``max_wait``
virtual seconds — into one columnar :class:`~repro.core.batch.EventBatch`
and invokes the cluster once per batch.  The time an event spends waiting
for its batch to fill is attributed to a dedicated ``path:batching``
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
from repro.core.recommendation import Recommendation, RecommendationBatch
from repro.delivery.notifier import PushNotification
from repro.delivery.pipeline import DeliveryPipeline
from repro.sim.des import DiscreteEventSimulator
from repro.sim.metrics import LatencyBreakdown
from repro.streaming.queue import MessageQueue
from repro.util.validation import require, require_non_negative

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

    ``recommendations`` is a boxed tuple on the per-event path and a
    columnar :class:`~repro.core.recommendation.RecommendationBatch` on the
    micro-batched path — the delivery end feeds the latter straight into
    ``offer_batch`` so candidates stay unboxed across the push queue.
    """

    origin_event: EdgeEvent
    recommendations: tuple[Recommendation, ...] | RecommendationBatch
    detection_seconds: float = 0.0
    rpc_seconds: float = 0.0
    #: Virtual seconds the origin event waited for its micro-batch to flush.
    batching_seconds: float = 0.0
    #: True when produced by a micro-batched consumer; lets downstream
    #: accounting record a (possibly zero) path:batching sample for every
    #: batched recommendation without inventing the stage in per-event mode.
    micro_batched: bool = False


class DetectionConsumer:
    """Edge events in, candidate batches out, detection time accounted.

    An optional admission controller gates the broker: when a burst
    exceeds the configured ingest budget, excess events are shed (and
    counted) instead of building unbounded queue backlog — the defensive
    posture behind the paper's fixed O(10^4)/s design target.

    ``batch_size == 1`` (the default) preserves the original per-event
    behavior bit for bit; larger sizes enable micro-batching with a
    ``max_wait`` flush timer so a trickling stream is never stalled
    indefinitely.
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
        require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
        require_non_negative(max_wait, "max_wait")
        self._sim = sim
        self._cluster = cluster
        self._output = output
        self._breakdown = breakdown
        self._admission = admission
        self._batch_size = batch_size
        self._max_wait = max_wait
        #: Pending (event, delivered_at) pairs awaiting a flush.
        self._buffer: list[tuple[EdgeEvent, float]] = []
        #: Monotone flush counter; guards the max_wait timer against firing
        #: after its buffer was already flushed by the size trigger.
        self._flush_epoch = 0
        #: Durability tap: called ``(batch, flushed_at)`` with every event
        #: batch immediately *before* it enters the cluster, so the WAL
        #: prefix is exactly the set of ingested batches (the per-event
        #: path logs one-event batches; replay runs them through the
        #: equivalent batched ingest).
        self.wal_tap = None
        #: Candidate batches detected but still in flight to the push
        #: queue (the virtual detection+rpc delay) — part of the
        #: topology's quiescence check for snapshots.
        self._inflight_publishes = 0
        self.events_consumed = 0
        self.events_shed = 0
        self.candidates_produced = 0
        #: Detection round-trips issued to the cluster (one per event on
        #: the per-event path, one per flush when micro-batching) — the
        #: deterministic cost axis of the overload frontier bench.
        self.cluster_calls = 0
        #: Last transport backlog observed (per-event when admission is
        #: configured, otherwise whenever :meth:`sample_backlog` runs).
        self.last_backlog = 0

    @property
    def batch_size(self) -> int:
        """Current micro-batch size (live-tunable via :meth:`configure`)."""
        return self._batch_size

    @property
    def max_wait(self) -> float:
        """Current flush deadline in virtual seconds."""
        return self._max_wait

    def configure(
        self, batch_size: int | None = None, max_wait: float | None = None
    ) -> None:
        """Retune the micro-batching knobs on a live consumer.

        The adaptive controller calls this between ticks.  A shrink that
        leaves the buffer at/over the new threshold flushes immediately,
        and a shortened ``max_wait`` re-arms the flush timer at the new
        deadline — so de-escalating to latency mode never strands
        buffered events behind a stale long timer (the epoch guard makes
        the superseded timer harmless).
        """
        rearm = False
        if batch_size is not None:
            require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
            self._batch_size = batch_size
        if max_wait is not None:
            require_non_negative(max_wait, "max_wait")
            rearm = max_wait < self._max_wait
            self._max_wait = max_wait
        if self._buffer and len(self._buffer) >= self._batch_size:
            self._flush(self._sim.clock.now())
        elif self._buffer and rearm:
            epoch = self._flush_epoch
            self._sim.schedule_after(
                self._max_wait, lambda: self._flush_if_pending(epoch)
            )

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
        if self._batch_size > 1:
            self._buffer.append((event, delivered_at))
            if len(self._buffer) >= self._batch_size:
                self._flush(delivered_at)
            elif len(self._buffer) == 1:
                epoch = self._flush_epoch
                self._sim.schedule_after(
                    self._max_wait, lambda: self._flush_if_pending(epoch)
                )
            return

        if self.wal_tap is not None:
            self.wal_tap(EventBatch.from_events([event]), delivered_at)
        started = time.perf_counter()
        recommendations, rpc_latency = self._cluster.broker.process_event(
            event, now=delivered_at
        )
        detection_seconds = time.perf_counter() - started

        self.cluster_calls += 1
        self.events_consumed += 1
        self.candidates_produced += len(recommendations)
        self._breakdown.record("detection", detection_seconds)
        if rpc_latency:
            self._breakdown.record("rpc", rpc_latency)

        if not recommendations:
            return
        batch = CandidateBatch(
            event,
            tuple(recommendations),
            detection_seconds=detection_seconds,
            rpc_seconds=rpc_latency,
        )
        # The broker hands the batch to the push queue only after the
        # detection work (and slowest partition ack) completes, so both
        # contribute their measured/virtual time to the end-to-end path.
        self._inflight_publishes += 1
        self._sim.schedule_after(
            detection_seconds + rpc_latency,
            lambda: self._publish(batch),
        )

    # ------------------------------------------------------------------
    # Micro-batching
    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Events buffered and not yet flushed to the cluster."""
        return len(self._buffer)

    @property
    def inflight_publishes(self) -> int:
        """Candidate batches scheduled but not yet on the push queue."""
        return self._inflight_publishes

    def _publish(self, batch: CandidateBatch) -> None:
        """Detection-delay timer callback: hand off to the push queue."""
        self._inflight_publishes -= 1
        self._output.publish(batch)

    def _flush_if_pending(self, epoch: int) -> None:
        """max_wait timer callback; a stale epoch means already flushed."""
        if epoch == self._flush_epoch and self._buffer:
            self._flush(self._sim.clock.now())

    def _flush(self, flushed_at: float) -> None:
        """Run the buffered micro-batch through the cluster, once."""
        buffered, self._buffer = self._buffer, []
        self._flush_epoch += 1
        batch = EventBatch.from_events([event for event, _ in buffered])
        if self.wal_tap is not None:
            self.wal_tap(batch, flushed_at)
        started = time.perf_counter()
        grouped, rpc_latency = self._cluster.broker.process_batch(
            batch, now=flushed_at
        )
        detection_seconds = time.perf_counter() - started

        self.cluster_calls += 1
        self.events_consumed += len(buffered)
        self._breakdown.record("detection", detection_seconds)
        if rpc_latency:
            self._breakdown.record("rpc", rpc_latency)

        for (event, delivered_at), recommendations in zip(buffered, grouped):
            batching_seconds = flushed_at - delivered_at
            self._breakdown.record("batching", batching_seconds)
            self.candidates_produced += len(recommendations)
            if not recommendations:
                continue
            candidate_batch = CandidateBatch(
                event,
                recommendations,
                detection_seconds=detection_seconds,
                rpc_seconds=rpc_latency,
                batching_seconds=batching_seconds,
                micro_batched=True,
            )
            # Every event in the micro-batch waits for the whole batch's
            # detection and the shared fan-out ack before its candidates
            # reach the push queue — batching trades latency for
            # throughput and the accounting keeps that honest.
            self._inflight_publishes += 1
            self._sim.schedule_after(
                detection_seconds + rpc_latency,
                lambda b=candidate_batch: self._publish(b),
            )


class DeliveryCoalescer:
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

    ``batch_size == 1`` (the default) preserves the uncoalesced behavior
    exactly: every batch is dispatched inline on arrival and the
    ``path:delivery-batching`` stage never materializes.

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
    the ranking window.  The funnel then sees the already-ranked
    survivors, so its "raw" count measures post-ranking volume.

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
        require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
        require_non_negative(max_wait, "max_wait")
        self._sim = sim
        self._delivery = delivery
        self._breakdown = breakdown
        self._notifications = notifications
        self._batch_size = batch_size
        self._max_wait = max_wait
        self._ranker = ranker
        self._serving = serving
        #: Pending (batch, delivered_at) pairs awaiting a flush.
        self._buffer: list[tuple[CandidateBatch, float]] = []
        self._pending_candidates = 0
        #: Monotone flush counter guarding the max_wait timer (see
        #: DetectionConsumer._flush_epoch).
        self._flush_epoch = 0
        self.batches_coalesced = 0
        self.flushes = 0

    @property
    def batch_size(self) -> int:
        """Current coalescing threshold (live-tunable via :meth:`configure`)."""
        return self._batch_size

    @property
    def max_wait(self) -> float:
        """Current coalescing window in virtual seconds."""
        return self._max_wait

    def configure(
        self, batch_size: int | None = None, max_wait: float | None = None
    ) -> None:
        """Retune the coalescing window on a live coalescer.

        Mirror of :meth:`DetectionConsumer.configure`: a shrink that
        leaves the buffer at/over the new threshold flushes immediately,
        a shortened ``max_wait`` re-arms the flush timer, and stale
        timers are defused by the epoch guard.
        """
        rearm = False
        if batch_size is not None:
            require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
            self._batch_size = batch_size
        if max_wait is not None:
            require_non_negative(max_wait, "max_wait")
            rearm = max_wait < self._max_wait
            self._max_wait = max_wait
        if self._buffer and self._pending_candidates >= self._batch_size:
            self._flush(self._sim.clock.now())
        elif self._buffer and rearm:
            epoch = self._flush_epoch
            self._sim.schedule_after(
                self._max_wait, lambda: self._flush_if_pending(epoch)
            )

    def __call__(
        self, batch: CandidateBatch, published_at: float, delivered_at: float
    ) -> None:
        """Queue-subscriber entry point."""
        self._breakdown.record("queue:push", delivered_at - published_at)
        if self._batch_size <= 1:
            self._account(batch, delivered_at, delivered_at, coalesced=False)
            self._offer_inline(batch, delivered_at)
            return
        self._buffer.append((batch, delivered_at))
        self._pending_candidates += len(batch.recommendations)
        if self._pending_candidates >= self._batch_size:
            self._flush(delivered_at)
        elif len(self._buffer) == 1:
            epoch = self._flush_epoch
            self._sim.schedule_after(
                self._max_wait, lambda: self._flush_if_pending(epoch)
            )

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------

    @property
    def pending_batches(self) -> int:
        """Candidate batches buffered and not yet flushed to the funnel."""
        return len(self._buffer)

    @property
    def pending_candidates(self) -> int:
        """Raw candidates buffered and not yet flushed to the funnel."""
        return self._pending_candidates

    def _flush_if_pending(self, epoch: int) -> None:
        """max_wait timer callback; a stale epoch means already flushed."""
        if epoch == self._flush_epoch and self._buffer:
            self._flush(self._sim.clock.now())

    def _flush(self, flushed_at: float) -> None:
        """Run the buffered batches through the funnel, as one batch."""
        buffered, self._buffer = self._buffer, []
        self._pending_candidates = 0
        self._flush_epoch += 1
        self.flushes += 1
        self.batches_coalesced += len(buffered)
        parts: list[RecommendationBatch] = []
        for batch, delivered_at in buffered:
            self._account(batch, delivered_at, flushed_at, coalesced=True)
            recommendations = batch.recommendations
            if isinstance(recommendations, RecommendationBatch):
                parts.append(recommendations)
            else:
                # Per-event consumers publish boxed tuples; re-column them
                # so the merged batch crosses the funnel columnar.
                parts.append(
                    RecommendationBatch.from_recommendations(recommendations)
                )
        merged = RecommendationBatch.concat_all(parts)
        if self._ranker is not None:
            # Ranked configuration: the coalescing window is the ranking
            # window — buffer columnar, release each user's top-k, and
            # only those winners enter the funnel.  They stay flat columns
            # end to end: the serving tap and the funnel read the same
            # arrays, and only delivered survivors are ever boxed.
            self._ranker.offer_batch(merged)
            released = self._ranker.flush(flushed_at)
            if self._serving is not None:
                self._serving.ingest_released(released, flushed_at)
            self._notifications.extend(
                self._delivery.offer_all(released, flushed_at)
            )
            return
        if self._serving is not None:
            self._serving.ingest_batch(merged, flushed_at)
        self._notifications.extend(
            self._delivery.offer_batch(merged, flushed_at)
        )

    # ------------------------------------------------------------------
    # Accounting + dispatch
    # ------------------------------------------------------------------

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

    def _offer_inline(self, batch: CandidateBatch, now: float) -> None:
        """Uncoalesced dispatch: the exact pre-coalescer behavior.

        With a ranker configured, each arriving batch is ranked and
        flushed immediately (a degenerate one-batch ranking window): the
        in-batch (recipient, candidate) dedup and per-user top-k still
        apply, there is just no cross-batch accumulation.
        """
        recommendations = batch.recommendations
        if self._ranker is not None:
            if isinstance(recommendations, RecommendationBatch):
                self._ranker.offer_batch(recommendations)
            else:
                for rec in recommendations:
                    self._ranker.offer(rec)
            released = self._ranker.flush(now)
            if self._serving is not None:
                self._serving.ingest_released(released, now)
            self._notifications.extend(self._delivery.offer_all(released, now))
            return
        if self._serving is not None:
            # Columnar batches merge as columns, boxed tuples are columned.
            self._serving.ingest_released(recommendations, now)
        if isinstance(recommendations, RecommendationBatch):
            # Columnar candidates stay columnar through the funnel; only
            # the final survivors are boxed (inside offer_batch).
            self._notifications.extend(
                self._delivery.offer_batch(recommendations, now)
            )
        else:
            for rec in recommendations:
                notification = self._delivery.offer(rec, now)
                if notification is not None:
                    self._notifications.append(notification)
