"""Sharded delivery: the notifier fan-out the paper's push tier implies.

``offer_batch`` used to end in one in-process funnel + notifier, so the
push tier — the part of the paper's pipeline that actually touches every
surviving notification — ran serial no matter how parallel detection got.
:class:`ShardedDeliveryPipeline` splits the funnel by **recipient hash**
(splitmix64, the same mix the waking-hours and pair-table code uses) into
``num_shards`` independent :class:`~repro.delivery.pipeline
.DeliveryPipeline` instances.

Sharding by recipient is semantics-preserving because every stateful
funnel stage is recipient-keyed: dedup on (recipient, candidate), fatigue
and waking-hours on recipient.  A recipient always lands on the same
shard, so each shard's state evolves exactly as the unsharded funnel's
would for that recipient subset — the delivered *multiset* and the summed
per-stage funnel counts are identical; only the delivery interleaving
across shards differs (shard-major instead of batch order).
``tests/test_delivery_sharded.py`` enforces that contract.

The transports mirror the cluster side (the same names):

* ``transport="inprocess"`` — shards run sequentially in this process
  (useful for state isolation and as the semantic oracle);
* ``transport="shm"`` — one worker process per shard behind a
  :class:`~repro.cluster.shm.Wire`, fed the columnar wire format
  (:mod:`repro.core.wire`); the fan-out is submitted to every shard
  before any result is gathered, so shards genuinely run concurrently.
  Only surviving notifications cross back (the paper's millions, never
  the billions).  Where the host has shared memory the wire is fronted
  by zero-copy rings: recommendation batches go out — and surviving
  notifications plus piggybacked funnel stats come back — as slab frames
  instead of pickles, and whatever overflows a ring slot falls back to
  the wire's mp queues, which carry everything on a host without
  ``/dev/shm``.

The serving-cache writer lives where the funnel lives: built with
``serving=``, every shard also owns its recipients' top-k cache (heap in
process, a shared-memory arena in a worker) and merges each slice just
before its funnel sees it; :attr:`ShardedDeliveryPipeline.serving` is the
one read surface over all of them.  The pipeline feeds no cache it does
not own: a caller that keeps a parent-side cache merges each batch
itself before offering it, as the coalescer does for a single funnel.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.cluster.shm import Wire, shm_available, sweep_segments
from repro.cluster.transport import TRANSPORTS
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    ColumnarRecommendations,
    FlatRecommendations,
    Recommendation,
    RecommendationBatch,
)
from repro.core.wire import (
    FRAME_FLAT_RECS,
    FRAME_REC_BATCH,
    decode_flat_recommendations,
    decode_recommendation_batch,
    encode_flat_recommendations,
    encode_recommendation_batch,
    frame_flat_recommendations,
    frame_notifications,
    frame_recommendation_batch,
    notifications_from_frame,
    table_payload_from_frame,
)
from repro.delivery.notifier import PushNotification
from repro.delivery.pipeline import DeliveryPipeline

if TYPE_CHECKING:  # runtime imports are lazy: serving.cache imports from
    # repro.delivery, so a module-level import here would be circular
    from repro.serving.cache import (
        ServingCacheConfig,
        ShardedServingCache,
        ShardedServingCacheReader,
    )
from repro.util.hashing import shard_ids
from repro.util.procpool import (
    WorkerHandle,
    default_start_method,
    spawn_worker,
    stop_workers,
    wire_stats,
)
from repro.util.validation import require, require_positive

#: Builds one shard's funnel; receives the shard index.
PipelineFactory = Callable[[int], DeliveryPipeline]


def _default_pipeline_factory(_shard: int) -> DeliveryPipeline:
    return DeliveryPipeline()


def split_batch_by_shard(
    batch: ColumnarRecommendations, num_shards: int
) -> list[ColumnarRecommendations]:
    """Partition a columnar batch into per-shard batches by recipient hash.

    Within-shard candidate order is batch order, which is what keeps each
    shard's stateful stages running the exact per-recipient decision
    sequence the unsharded funnel would.  Flat (ranked) input costs one
    hash over the recipient column and one stable partition, sources
    shared by reference; a grouped batch is split group by group, group
    metadata shared by reference
    (:meth:`~repro.core.recommendation.RecommendationGroup.with_recipients`).
    """
    require_positive(num_shards, "num_shards")
    if isinstance(batch, FlatRecommendations):
        if num_shards == 1:
            return [batch]
        shards = shard_ids(batch.recipients, num_shards)
        order = np.argsort(shards, kind="stable")
        bounds = np.searchsorted(shards[order], np.arange(num_shards + 1))
        return [
            batch.take(order[start:stop])
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]
    per_shard: list[list] = [[] for _ in range(num_shards)]
    for group in batch.groups:
        shards = shard_ids(group.recipients, num_shards)
        if len(shards) == 0:
            continue
        first = int(shards[0])
        if np.all(shards == first):  # common small-group fast path
            per_shard[first].append(group)
            continue
        for shard in np.unique(shards).tolist():
            per_shard[shard].append(
                group.with_recipients(group.recipients[shards == shard])
            )
    return [
        RecommendationBatch(groups) if groups else EMPTY_RECOMMENDATION_BATCH
        for groups in per_shard
    ]


#: The two columnar batch shapes on the wire, by request-message kind:
#: payload decoder, slab framer, and the frame kind the framer writes.
_BATCH_DECODERS = {
    "batch": decode_recommendation_batch,
    "flat": decode_flat_recommendations,
}
_BATCH_FRAMERS = {
    "batch": frame_recommendation_batch,
    "flat": frame_flat_recommendations,
}
_FRAME_KINDS = {FRAME_REC_BATCH: "batch", FRAME_FLAT_RECS: "flat"}


def _frame_request(mem, message: tuple) -> int | None:
    """A ``(kind, payload, now)`` batch request as a slab frame."""
    kind, payload, now = message
    return _BATCH_FRAMERS[kind](mem, payload, now)


def _request_from_frame(frame: tuple) -> tuple:
    """Invert :func:`_frame_request`."""
    kind, cols, blobs, now, _latency, _aux = frame
    return (_FRAME_KINDS[kind], table_payload_from_frame(cols, blobs), now)


def _frame_reply(mem, reply: tuple) -> int | None:
    """An ``("ok", delivered, stats)`` batch reply as a slab frame.

    Every notification of one ``offer_batch`` shares its delivery time,
    so the first one's rides in the frame header for all of them.
    """
    _ok, delivered, stats = reply
    delivered_at = delivered[0].delivered_at if delivered else 0.0
    return frame_notifications(mem, delivered, stats, delivered_at)


def _reply_from_frame(frame: tuple) -> tuple:
    """Invert :func:`_frame_reply`."""
    _kind, cols, blobs, now, _latency, aux = frame
    return ("ok", *notifications_from_frame(cols, blobs, now, aux))


def _delivery_worker_main(state, wire: Wire) -> None:
    """One delivery shard worker: drain requests until a stop message.

    Every reply carries the shard's current (funnel stages, delivered
    total) so the parent's aggregate accounting stays current as of the
    last reply even if this worker later dies — accumulated history must
    never vanish from ``funnel_totals()`` retroactively.

    Which lane of the wire a message took is the wire's business.  On
    the ring wire recommendation batches arrive as ``FRAME_REC_BATCH``
    frames and ranked winners as ``FRAME_FLAT_RECS`` frames (decoded with
    one bulk copy — funnel stages may retain batch columns, so the slot
    can't be lent out zero-copy the way partition ingest can), and
    surviving notifications plus piggybacked funnel stats go back as
    ``FRAME_NOTIFICATIONS`` frames.  A ``None`` from the wire means the
    parent died: exit quietly.

    With a serving arena spec the worker is also its shard's serving
    writer: every incoming slice merges into the shard-local shm cache
    *before* the funnel (the same pre-funnel content a single funnel's
    coalescer tap sees), so the parent reads recommendations without ever
    decoding or re-merging a reply.
    """
    pipeline, serving_spec = state
    serving = None
    if serving_spec is not None:
        from repro.serving.cache import ServingCache

        serving = ServingCache.attach_writer(serving_spec)

    def stats() -> tuple[dict[str, int], int]:
        return (dict(pipeline.funnel.stages), pipeline.notifier.delivered_total)

    try:
        while True:
            message = wire.recv(_request_from_frame)
            if message is None:
                return
            kind, framer = message[0], None
            if kind in _BATCH_DECODERS:
                batch = _BATCH_DECODERS[kind](message[1])
                if serving is not None:
                    serving.ingest_batch(batch, message[2])
                delivered = pipeline.offer_batch(batch, message[2])
                reply, framer = ("ok", delivered, stats()), _frame_reply
            elif kind == "stats":
                reply = ("ok", stats())
            elif kind == "state":
                reply = ("ok", pipeline.stage_state())
            else:
                return  # stop: exit without a reply (close never gathers)
            if not wire.send(reply, framer):
                return
    finally:
        if serving is not None:
            serving.close()


class ShardedDeliveryPipeline:
    """Recipient-hash-sharded funnel, drop-in where a pipeline is consumed.

    Implements the columnar ``offer_all`` / ``offer_batch`` surface the
    delivery coalescer and the simulated topology drive, so
    ``--delivery-shards N`` slots in without touching the callers (a lone
    candidate is a one-row batch; the boxed per-candidate ``offer`` stays
    on the in-process :class:`DeliveryPipeline`, the reference).

    Args:
        num_shards: independent funnel shards (>= 1).
        pipeline_factory: builds shard *i*'s funnel (a fresh production
            trio per shard when omitted).  Worker shards start with
            :func:`~repro.util.procpool.default_start_method`: under
            ``spawn`` the factory's product must be picklable; under
            ``fork`` (the default where available) anything goes.
        transport: ``"inprocess"`` (default) or ``"shm"`` (worker shards,
            fed over zero-copy shared-memory rings where the host has
            ``/dev/shm`` and over pickled queues where it has not).
        serving: a :class:`~repro.serving.cache.ServingCacheConfig` that
            makes each shard host its *own* serving-cache writer where
            the funnel runs — over shared-memory arenas in the worker
            shards (the parent attaches the read-only
            :class:`~repro.serving.cache.ShardedServingCacheReader`
            exposed as :attr:`serving`), or a plain
            :class:`~repro.serving.cache.ShardedServingCache` in
            process under ``"inprocess"``.  Each shard ingests its batch
            slice *before* its funnel — exactly the pre-funnel content a
            single funnel's coalescer tap merges into a parent cache — so
            the served multiset is identical to that posture while the
            merge cost rides the shard parallelism and reads cross the
            process boundary zero-copy.  Whoever drives this pipeline
            reads :attr:`serving` and must not write a cache of its own.
    """

    def __init__(
        self,
        num_shards: int,
        pipeline_factory: PipelineFactory | None = None,
        transport: str = "inprocess",
        serving: ServingCacheConfig | None = None,
    ) -> None:
        require_positive(num_shards, "num_shards")
        require(
            transport in TRANSPORTS,
            f"transport must be one of {TRANSPORTS}, got {transport!r}",
        )
        if serving is not None and transport != "inprocess":
            require(
                shm_available(),
                "in-worker serving arenas need shared memory, which is "
                "unavailable on this host (no /dev/shm?)",
            )
        factory = pipeline_factory or _default_pipeline_factory
        self.num_shards = num_shards
        self.transport = transport
        #: The serving surface for this pipeline's mode: None without a
        #: serving config; a ShardedServingCache under "inprocess"; a
        #: ShardedServingCacheReader (attach-by-spec, zero-copy reads of
        #: the workers' arenas) under "shm".
        self.serving: ShardedServingCache | ShardedServingCacheReader | None = (
            None
        )
        if serving is not None:
            from repro.serving.cache import (
                ShardedServingCache,
                ShardedServingCacheReader,
                create_serving_arena,
            )
        #: Raw candidates lost to dead shard workers — counted in
        #: candidates on every loss path (observability, never silent).
        self.notifications_lost_shards = 0
        #: Last (funnel stages, delivered total) seen per shard — every
        #: worker reply refreshes it, so a shard that dies keeps its
        #: accumulated history in the aggregates instead of erasing it.
        self._stats_cache: dict[int, tuple[dict[str, int], int]] = {}
        self._closed = False
        #: Owned shm segment names, swept again at close as the backstop
        #: for workers that died without their wire being destroyed.
        self._segment_names: list[str] = []
        if transport == "inprocess":
            self._pipelines: list[DeliveryPipeline] | None = [
                factory(shard) for shard in range(num_shards)
            ]
            self._workers: list[WorkerHandle] = []
            if serving is not None:
                self.serving = ShardedServingCache(
                    num_shards=num_shards, **serving._asdict()
                )
            return
        self._pipelines = None
        context = multiprocessing.get_context(default_start_method())
        self._workers = []
        serving_specs = []
        for shard in range(num_shards):
            serving_spec = None
            if serving is not None:
                # The parent owns only the 64-byte control segment; the
                # worker creates (and republishes on growth) the data
                # segments under names derived from it.
                serving_spec = create_serving_arena(**serving._asdict())
                serving_specs.append(serving_spec)
                self._segment_names.append(serving_spec.control_name)
            wire = Wire.create(context)
            self._segment_names += wire.segment_names
            # spawn_worker hands the shard's funnel over in a one-shot
            # holder cleared right after start(): the parent must not
            # retain N funnels' worth of state it never reads.
            self._workers.append(
                spawn_worker(
                    context,
                    shard,
                    _delivery_worker_main,
                    (factory(shard), serving_spec),
                    name=f"repro-delivery-{shard}",
                    wire=wire,
                )
            )
        if serving is not None:
            self.serving = ShardedServingCacheReader.attach(serving_specs)
            for worker, reader in zip(self._workers, self.serving.shards):
                worker.arena = reader

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------

    def _post_batch(
        self, worker: WorkerHandle, batch: ColumnarRecommendations, now: float
    ) -> bool:
        """Send a columnar batch down a worker's wire (frame when it fits)."""
        if isinstance(batch, FlatRecommendations):
            message = ("flat", encode_flat_recommendations(batch), now)
        else:
            message = ("batch", encode_recommendation_batch(batch), now)
        return worker.send(message, _frame_request)

    def wire_stats(self) -> dict[str, float]:
        """Frame/fallback counters and slab occupancy summed over shards
        (:func:`repro.util.procpool.wire_stats`; all zero in process)."""
        return wire_stats(self._workers)

    # ------------------------------------------------------------------
    # Funnel surface (what coalescer / topology call)
    # ------------------------------------------------------------------

    def offer_all(
        self, recs: Iterable[Recommendation], now: float
    ) -> list[PushNotification]:
        """Offer candidates arriving together; returns deliveries.

        A ranked flush's columnar winners pass straight to
        :meth:`offer_batch`; foreign boxed input is columned first (flat,
        one row each — rank order interleaves groups, so there is nothing
        to re-group).
        """
        if not isinstance(recs, ColumnarRecommendations):
            recs = FlatRecommendations.from_boxed(recs)
        return self.offer_batch(recs, now)

    def offer_batch(
        self, batch: ColumnarRecommendations, now: float
    ) -> list[PushNotification]:
        """Fan a columnar batch out across the shards and gather survivors.

        Same survivor multiset and summed funnel counts as one unsharded
        ``offer_batch``; delivery order is shard-major.  Worker shards
        each receive their slice before any reply is awaited, so the
        funnels run concurrently.
        """
        if len(batch) == 0:
            return []
        shards = split_batch_by_shard(batch, self.num_shards)
        if self._pipelines is not None:
            delivered: list[PushNotification] = []
            for shard, (pipeline, shard_batch) in enumerate(
                zip(self._pipelines, shards)
            ):
                if len(shard_batch):
                    if self.serving is not None:
                        self.serving.shards[shard].ingest_batch(shard_batch, now)
                    delivered.extend(pipeline.offer_batch(shard_batch, now))
            return delivered
        submitted: list[tuple[WorkerHandle, int]] = []
        for worker, shard_batch in zip(self._workers, shards):
            if not len(shard_batch):
                continue
            if not (
                worker.alive() and self._post_batch(worker, shard_batch, now)
            ):
                self.notifications_lost_shards += len(shard_batch)
                continue
            if self.serving is not None:
                self.serving.shards[worker.key].posted_updates += 1
            submitted.append((worker, len(shard_batch)))
        delivered = []
        for worker, shard_candidates in submitted:
            raw = worker.recv(_reply_from_frame)
            if raw is None:
                # The loss ledger counts *candidates* in every path, so a
                # mid-batch death charges the whole submitted slice.
                self.notifications_lost_shards += shard_candidates
                continue
            self._stats_cache[worker.key] = raw[2]
            delivered.extend(raw[1])
        return delivered

    # ------------------------------------------------------------------
    # Aggregated accounting
    # ------------------------------------------------------------------

    def funnel_totals(self) -> dict[str, int]:
        """Per-stage funnel counts summed across shards (key for key)."""
        totals: dict[str, int] = {}
        for stages, _delivered in self._shard_stats():
            for key, value in stages.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def delivered_total(self) -> int:
        """Notifications delivered across all shards."""
        return sum(delivered for _stages, delivered in self._shard_stats())

    def reduction_ratio(self) -> float:
        """Raw candidates per delivered push, aggregated over shards."""
        totals = self.funnel_totals()
        delivered = totals.get("delivered", 0)
        if delivered == 0:
            return float("inf")
        return totals.get("raw", 0) / delivered

    def _shard_stats(self) -> list[tuple[dict[str, int], int]]:
        if self._pipelines is not None:
            return [
                (dict(p.funnel.stages), p.notifier.delivered_total)
                for p in self._pipelines
            ]
        for shard, answer in self._ask_workers(("stats",)).items():
            # A dead shard's history stays in the aggregates via the last
            # reply's cached stats.
            self._stats_cache[shard] = answer
        return list(self._stats_cache.values())

    def _ask_workers(self, request: tuple) -> dict[int, object]:
        """Each live worker's answer to a control *request*, by shard."""
        answers = {}
        for worker in self._workers:
            if worker.alive() and worker.send(request):
                raw = worker.recv(_reply_from_frame)
                if raw is not None:
                    answers[worker.key] = raw[1]
        return answers

    # ------------------------------------------------------------------
    # Stage state (the durability tier's funnel components)
    # ------------------------------------------------------------------

    def stage_state(self) -> dict[str, dict[str, np.ndarray]]:
        """Every shard's :meth:`DeliveryPipeline.stage_state`, each key
        prefixed ``shard<i>.``.  A dead worker shard has no state to give
        (its recipients' candidates are already counted lost)."""
        if self._pipelines is not None:
            per_shard = dict(enumerate(p.stage_state() for p in self._pipelines))
        else:
            per_shard = self._ask_workers(("state",))
        return {
            f"shard{shard}.{name}": arrays
            for shard, components in per_shard.items()
            for name, arrays in components.items()
        }

    def load_stage_state(
        self, components: dict[str, dict[str, np.ndarray]]
    ) -> None:
        """Load a :meth:`stage_state` into the in-process shards (recovery
        rebuilds every deployment in process)."""
        require(
            self._pipelines is not None,
            "stage state loads into in-process shards only",
        )
        for shard, pipeline in enumerate(self._pipelines):
            prefix = f"shard{shard}."
            pipeline.load_stage_state(
                {
                    name[len(prefix):]: arrays
                    for name, arrays in components.items()
                    if name.startswith(prefix)
                }
            )

    # ------------------------------------------------------------------
    # Worker plumbing (shared with the cluster transport: util/procpool)
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop, join, and reap shard workers (idempotent).

        ``stop_workers`` pins the serving readers' final generation
        before each stop and closes each shard's wire after its join;
        the serving reclamation then unlinks any data generation a
        crashed writer left behind (deterministic names — no handle
        needed), and the final sweep backstops control/ring segments
        whose worker never spawned.  Readers keep answering from their
        pinned mappings after all of it.
        """
        if self._closed:
            return
        self._closed = True
        stop_workers(self._workers)
        serving = getattr(self, "serving", None)
        if serving is not None and self._pipelines is None:
            serving.reclaim_segments()
        sweep_segments(self._segment_names)

    def __enter__(self) -> "ShardedDeliveryPipeline":
        return self

    def __exit__(self, *_exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort backstop; close() is the API
        try:
            self.close()
        except Exception:
            pass
