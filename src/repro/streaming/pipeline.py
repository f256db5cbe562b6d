"""The full streaming topology: the paper's production path, end to end.

::

    edge created
      -> [firehose queue]      (lognormal hop)
      -> [fan-out queue]       (lognormal hop)
      -> broker + partitions   (measured detection ms + virtual rpc)
      -> [push queue]          (lognormal hop)
      -> delivery coalescer    (merge batches over delivery_max_wait)
      -> delivery funnel       (dedup / waking hours / fatigue)
      -> push notification

Per-notification latency is ``delivered_at - edge.created_at`` in virtual
time; the breakdown separates queue hops from detection so benchmark E4 can
verify the paper's claim that "nearly all the latency comes from event
propagation delays in various message queues".  Both micro-batching knobs
are symmetric — two users of one
:class:`~repro.streaming.window.FlushWindow`: the detection consumer
batches *events* (``batch_size`` / ``max_batch_wait``, reported as
``path:batching``) and the delivery coalescer batches *candidate batches*
(``delivery_batch_size`` / ``delivery_max_wait``, reported as
``path:delivery-batching``).  Each size is only a size: the default of 1
takes the same flush path with windows of one, and reports no batching
stage.

The pull-side serving cache is written where the funnel runs: by the
coalescer's flush tap in front of a single funnel, by the delivery shards
themselves when the funnel is sharded with ``serving=`` — the topology
only looks at ``delivery.serving`` to know which, there is no mode to set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster
from repro.core.events import EdgeEvent
from repro.delivery.pipeline import DeliveryPipeline
from repro.delivery.notifier import PushNotification
from repro.sim.des import DiscreteEventSimulator
from repro.sim.latency import DelayModel
from repro.sim.metrics import LatencyBreakdown
from repro.ops.controller import AdaptiveController, LoadSignal
from repro.streaming.consumer import (
    CandidateBatch,
    DeliveryCoalescer,
    DetectionConsumer,
)
from repro.serving.frontend import QueryLoadGenerator
from repro.streaming.queue import MessageQueue
from repro.streaming.source import ReplaySource
from repro.topology import Deployment, TopologyConfig
from repro.util.validation import require

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.durability.manager import DurabilityManager
    from repro.serving.cache import ServingCache


class TopologyKnobs:
    """The actuation surface the adaptive controller drives.

    Thin adapter from the controller's three abstract actuations onto the
    live topology components; tests substitute a recorder with the same
    three methods.
    """

    def __init__(
        self,
        consumer: DetectionConsumer,
        coalescer: DeliveryCoalescer,
        admission=None,
    ) -> None:
        self._consumer = consumer
        self._coalescer = coalescer
        self._admission = admission

    def set_detection_knobs(self, batch_size: int, max_wait: float) -> None:
        self._consumer.configure(batch_size=batch_size, max_wait=max_wait)

    def set_delivery_knobs(self, batch_size: int, max_wait: float) -> None:
        self._coalescer.configure(batch_size=batch_size, max_wait=max_wait)

    def set_shedding(self, active: bool) -> None:
        if self._admission is not None:
            self._admission.set_pressure_shed(active)


@dataclass
class TopologyReport:
    """Everything one topology run produced."""

    breakdown: LatencyBreakdown
    notifications: list[PushNotification] = field(default_factory=list)
    events_ingested: int = 0
    candidates_detected: int = 0

    def queue_share(self) -> float:
        """Mean fraction of end-to-end latency spent in queue hops.

        Computed from the exact per-notification decomposition
        (``total = queue hops + detection + rpc``), so the shares sum to 1.
        """
        if "path:queue" not in self.breakdown.stages():
            return 0.0
        return self.breakdown.share_of_total("path:queue")

    def detection_share(self) -> float:
        """Mean fraction of end-to-end latency spent in detection + rpc."""
        if "path:processing" not in self.breakdown.stages():
            return 0.0
        return self.breakdown.share_of_total("path:processing")


class StreamingTopology:
    """Assembles source, queues, cluster consumer, and delivery funnel."""

    def __init__(
        self,
        cluster: Cluster,
        delivery: DeliveryPipeline | None = None,
        hop_models: dict[str, DelayModel] | None = None,
        admission=None,
        serving: "ServingCache | None" = None,
        durability: "DurabilityManager | None" = None,
        query_users: int | None = None,
        config: TopologyConfig | None = None,
    ) -> None:
        """Wire the topology around prebuilt components.

        Every scalar — seed, both micro-batching windows, ``ranked_k``,
        the controller, ``query_qps``, ``snapshot_interval``, the hop
        medians — comes from *config* (a default
        :class:`~repro.topology.TopologyConfig` when omitted, which
        documents each); the components are injected, usually straight
        off a :func:`~repro.topology.build_deployment` (see :meth:`over`).

        Args:
            cluster: the detection cluster to run in the middle.
            delivery: the notification funnel (production default trio when
                omitted).
            hop_models: delay models per hop name (``firehose``,
                ``fanout``, ``push``), overriding ``config.hop_models()``.
            admission: optional
                :class:`~repro.ops.admission.AdmissionController` gating
                the detection consumer (overload shedding).  When the
                config's controller has an SLO and none is passed, a
                non-limiting SAMPLE-policy one gives the shed rung an
                actuator (and keeps a 1-in-N trace flowing while shedding).
            serving: the cache the coalescer's flush tap writes in front of
                a single funnel (module docstring).  A *delivery* that owns
                its shards' caches is read through ``delivery.serving``
                instead; passing *serving* as well is an error (every row
                would be written twice).
            durability: the :class:`~repro.durability.manager.
                DurabilityManager` whose WAL taps the detection consumer
                (every batch is logged immediately before it enters the
                cluster) and whose snapshots fire every
                ``config.snapshot_interval``, at quiescent points.
            query_users: user-id space of the ``config.query_qps`` load
                (the graph's user count; required with it).
        """
        config = config or TopologyConfig()
        self.config = config
        self.sim = DiscreteEventSimulator()
        self.breakdown = LatencyBreakdown()
        self.delivery = delivery or DeliveryPipeline()
        shard_owned = getattr(self.delivery, "serving", None)
        require(
            serving is None or shard_owned is None,
            "delivery already owns its shards' serving caches "
            "(delivery.serving); tapping serving= as well would write "
            "every row twice",
        )
        if hop_models is None:
            hop_models = config.hop_models()

        self.firehose: MessageQueue[EdgeEvent] = MessageQueue(
            self.sim, "firehose", hop_models.get("firehose")
        )
        self.fanout: MessageQueue[EdgeEvent] = MessageQueue(
            self.sim, "fanout", hop_models.get("fanout")
        )
        self.push: MessageQueue[CandidateBatch] = MessageQueue(
            self.sim, "push", hop_models.get("push")
        )
        self.source = ReplaySource(self.sim, self.firehose)
        if (
            config.controller is not None
            and config.controller.slo_p99 is not None
            and admission is None
        ):
            from repro.ops.admission import AdmissionController, AdmissionPolicy

            # Effectively infinite budget: the bucket itself never sheds;
            # only the controller's pressure-shed rung does.
            admission = AdmissionController(
                rate=1e12,
                burst=1e12,
                policy=AdmissionPolicy.SAMPLE,
            )
        self.consumer = DetectionConsumer(
            self.sim,
            cluster,
            self.push,
            self.breakdown,
            admission=admission,
            batch_size=config.batch_size,
            max_wait=config.max_batch_wait,
        )
        self._notifications: list[PushNotification] = []
        # Latency is measured per *recommendation delivery* (the paper's
        # "from the edge creation event to the delivery of the
        # recommendation"), before the product filters — dedup would bias
        # the distribution toward the fastest duplicate.  The coalescer
        # owns that accounting (plus the delivery-batching wait, when
        # coalescing is enabled).
        self.coalescer = DeliveryCoalescer(
            self.sim,
            self.delivery,
            self.breakdown,
            self._notifications,
            batch_size=config.delivery_batch_size,
            max_wait=config.delivery_max_wait,
            ranker=config.ranker(),
            serving=serving,
        )
        #: The cache point queries, gauges and snapshots read: the one
        #: the delivery shards write when they own it, else the tapped one.
        self.serving = shard_owned if shard_owned is not None else serving
        self.query_load: QueryLoadGenerator | None = None
        if config.query_qps is not None:
            require(
                self.serving is not None,
                "query_qps needs a serving cache to query",
            )
            require(
                query_users is not None and query_users > 0,
                "query_qps needs query_users (the id space to draw from)",
            )
            self.query_load = QueryLoadGenerator(
                self.sim,
                self.serving,
                query_users,
                config.query_qps,
                self.breakdown,
                seed=config.seed,
            )

        self.durability = durability
        self._snapshot_interval = config.snapshot_interval
        require(
            config.snapshot_interval is None or durability is not None,
            "snapshot_interval needs a durability manager",
        )
        if durability is not None:
            durability.cluster = cluster
            self.consumer.wal_tap = durability.log_batch

        self.admission = admission
        self.controller: AdaptiveController | None = None
        if config.controller is not None:
            self.controller = AdaptiveController(
                TopologyKnobs(self.consumer, self.coalescer, admission),
                config=config.controller,
            )

        # Wire the stages.
        self.firehose.subscribe(self._forward_to_fanout)
        self.fanout.subscribe(self.consumer)
        self.fanout.subscribe(self._record_fanout_delay)
        self.push.subscribe(self.coalescer)

    @classmethod
    def over(
        cls, deployment: Deployment, query_users: int | None = None, **components
    ) -> "StreamingTopology":
        """The topology around a :func:`~repro.topology.build_deployment`
        result (*components* adds ``hop_models`` / ``admission``)."""
        return cls(
            deployment.cluster,
            delivery=deployment.delivery,
            serving=deployment.parent_cache,
            durability=deployment.durability,
            query_users=query_users,
            config=deployment.config,
            **components,
        )

    # ------------------------------------------------------------------
    # Stage glue
    # ------------------------------------------------------------------

    def _forward_to_fanout(
        self, event: EdgeEvent, published_at: float, delivered_at: float
    ) -> None:
        self.breakdown.record("queue:firehose", delivered_at - published_at)
        self.fanout.publish(event)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, events: list[EdgeEvent]) -> TopologyReport:
        """Replay *events* through the whole path and drain the simulator."""
        self.source.load(events)
        if self.controller is not None:
            self.sim.schedule_after(
                self.controller.config.interval, self._controller_tick
            )
        if self.query_load is not None and events:
            # The query timeline is fixed up front (stream span plus a
            # drain margin covering the trailing flush windows): were the
            # queries self-rescheduling-while-pending like the controller
            # tick, the two event sources would keep each other alive and
            # the drain would never finish.
            horizon = max(event.created_at for event in events) + 1.0
            self.query_load.schedule_until(horizon)
        if self.durability is not None and self._snapshot_interval is not None:
            self.sim.schedule_after(
                self._snapshot_interval, self._snapshot_tick
            )
        self.sim.run()
        if self.durability is not None:
            # Everything ingested is now OS-buffered: the full log
            # survives a SIGKILL landing after the drain.
            self.durability.wal.flush()
        return TopologyReport(
            breakdown=self.breakdown,
            notifications=list(self._notifications),
            events_ingested=self.consumer.events_consumed,
            candidates_detected=self.consumer.candidates_produced,
        )

    def _record_fanout_delay(
        self, event: EdgeEvent, published_at: float, delivered_at: float
    ) -> None:
        self.breakdown.record("queue:fanout", delivered_at - published_at)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def snapshot_quiescent(self) -> bool:
        """True when every WAL-logged batch has fully reached the funnel.

        Events still upstream of the consumer (queue hops, the
        micro-batch buffer) are *not yet logged*, so they don't block a
        snapshot; candidates between the cluster and the funnel are the
        effects of logged records the arenas haven't absorbed yet, so
        they do.
        """
        return (
            self.consumer.inflight_publishes == 0
            and self.push.in_flight == 0
            and self.coalescer.pending_batches == 0
        )

    def _snapshot_tick(self) -> None:
        assert self.durability is not None
        assert self._snapshot_interval is not None
        delay = self._snapshot_interval
        if self.snapshot_quiescent():
            self.durability.snapshot(
                self.sim.clock.now(),
                delivery=self.delivery,
                notifications=self._notifications,
                serving=self.serving,
            )
        else:
            # In-flight candidates drain within a few virtual
            # milliseconds; retry shortly instead of skipping a whole
            # interval.
            delay = min(delay, 0.05)
        # Reschedule only while other work remains (see _controller_tick).
        if self.sim.pending() > 0:
            self.sim.schedule_after(delay, self._snapshot_tick)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def load_signal(self) -> LoadSignal:
        """Sample the pressure signal the controller decides on."""
        return LoadSignal(
            transport_backlog=self.consumer.sample_backlog(),
            queued_events=(
                self.firehose.in_flight
                + self.fanout.in_flight
                + self.push.in_flight
            ),
            pending_events=self.consumer.pending_events,
            pending_candidates=self.coalescer.pending_candidates,
            recent_p99=self.breakdown.recent_p99(),
        )

    def _controller_tick(self) -> None:
        assert self.controller is not None
        self.controller.tick(self.sim.clock.now(), self.load_signal())
        # Reschedule only while other work remains, or the tick itself
        # would keep the heap non-empty and the drain would never finish.
        if self.sim.pending() > 0:
            self.sim.schedule_after(
                self.controller.config.interval, self._controller_tick
            )
