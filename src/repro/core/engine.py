"""Single-machine motif engine: S + D + detector programs in one process.

This is the paper's design "for the case where the entire graph fits on a
single machine"; :mod:`repro.cluster` stacks twenty of these behind brokers.
The engine owns the one insert into D per event (engines sharing one D
insert it once between them) and fans the event out to every registered
detector program, timing the detection work so benchmarks
can verify the "graph queries take only a few milliseconds" claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.batch import EventBatch, iter_event_batches
from repro.core.detector import OnlineDetector
from repro.core.diamond import DiamondDetector
from repro.core.events import EdgeEvent
from repro.core.params import DetectionParams
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    Recommendation,
    RecommendationBatch,
)
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.snapshot import GraphSnapshot, build_follower_snapshot
from repro.graph.static_index import StaticFollowerIndex
from repro.util.stats import PercentileTracker
from repro.util.validation import require


@dataclass
class EngineStats:
    """Aggregate engine-level counters and the per-event latency tracker."""

    events_processed: int = 0
    recommendations_emitted: int = 0
    #: Seconds of detection work per event (insert + all detector programs).
    query_latency: PercentileTracker = field(
        default_factory=lambda: PercentileTracker(max_samples=50_000)
    )


class MotifEngine:
    """Drives one D copy and any number of detector programs."""

    def __init__(
        self,
        static_index: StaticFollowerIndex,
        dynamic_index: DynamicEdgeIndex,
        detectors: list[OnlineDetector] | None = None,
        track_latency: bool = True,
    ) -> None:
        """Assemble an engine from prebuilt indexes.

        Args:
            static_index: the S structure (whole graph or partition shard).
            dynamic_index: the D structure this engine inserts into.
            detectors: detector programs; when omitted, a single
                :class:`DiamondDetector` with production parameters is
                registered.  Detectors must have been constructed with
                ``inserts_edges=False`` — the engine owns the insert — and
                implement the batched entry points ``scan_batch`` and
                ``process_batch`` (:mod:`repro.core.detector`); a program
                without them raises :class:`TypeError`.
            track_latency: record per-event detection latency (small
                constant overhead; benchmarks that measure raw throughput
                can disable it).
        """
        self.static_index = static_index
        self.dynamic_index = dynamic_index
        if detectors is None:
            detectors = [
                DiamondDetector(
                    static_index,
                    dynamic_index,
                    DetectionParams(),
                    inserts_edges=False,
                )
            ]
        require(len(detectors) > 0, "an engine needs at least one detector")
        for detector in detectors:
            for method in ("scan_batch", "process_batch"):
                if not callable(getattr(detector, method, None)):
                    raise TypeError(
                        f"detector {detector.name!r} has no {method}; an "
                        "engine drives its programs through scan_batch and "
                        "process_batch only"
                    )
        self.detectors: list[OnlineDetector] = list(detectors)
        self._track_latency = track_latency
        self.stats = EngineStats()

    @classmethod
    def from_snapshot(
        cls,
        snapshot: GraphSnapshot,
        params: DetectionParams | None = None,
        influencer_limit: int | None = None,
        retention: float | None = None,
        max_edges_per_target: int | None = None,
        track_latency: bool = True,
    ) -> "MotifEngine":
        """Build the standard production stack from an offline snapshot.

        Args:
            snapshot: the offline ``A -> B`` follow graph.
            params: diamond parameters (production defaults when omitted).
            influencer_limit: per-user cap applied while inverting into S.
            retention: D retention seconds; defaults to ``params.tau``.
            max_edges_per_target: per-C cap on stored D entries (the
                paper's "pruning the D data structure to only retain the
                most recent edges"); ``None`` keeps everything in-window.
        """
        params = params or DetectionParams()
        static_index = build_follower_snapshot(
            snapshot, influencer_limit=influencer_limit
        )
        dynamic_index = DynamicEdgeIndex(
            retention=retention or params.tau,
            max_edges_per_target=max_edges_per_target,
        )
        detector = DiamondDetector(
            static_index, dynamic_index, params, inserts_edges=False
        )
        return cls(
            static_index,
            dynamic_index,
            [detector],
            track_latency=track_latency,
        )

    # ------------------------------------------------------------------
    # Event path
    # ------------------------------------------------------------------

    def process(
        self, event: EdgeEvent, now: float | None = None
    ) -> list[Recommendation]:
        """Ingest one live edge and run every detector program on it.

        ``now`` is the processing time for freshness evaluation (defaults
        to the event's creation time; see ``DiamondDetector.on_edge``).
        """
        started = time.perf_counter() if self._track_latency else 0.0
        index = self.dynamic_index
        if index.enter(event, self):
            index.insert(
                event.actor, event.target, event.created_at, action=event.action
            )
        recommendations: list[Recommendation] = []
        for detector in self.detectors:
            recommendations.extend(detector.on_edge(event, now))
        self.stats.events_processed += 1
        self.stats.recommendations_emitted += len(recommendations)
        if self._track_latency:
            self.stats.query_latency.add(time.perf_counter() - started)
        return recommendations

    def process_batch(
        self, batch: EventBatch, now: float | None = None
    ) -> list[Recommendation]:
        """Ingest a columnar micro-batch; returns all candidates, flat.

        Emits exactly the recommendations (and leaves exactly the index
        state) the per-event :meth:`process` loop would, in the same order.
        This is the *boxed* view — each candidate is materialized as a
        :class:`Recommendation`; throughput-critical callers should consume
        :meth:`process_batch_grouped`'s columnar batch instead.
        """
        return list(self.process_batch_grouped(batch, now))

    def process_batch_grouped(
        self, batch: EventBatch, now: float | None = None
    ) -> RecommendationBatch:
        """Batched ingest into one columnar
        :class:`~repro.core.recommendation.RecommendationBatch` of trigger
        groups, in event order (each group's ``event`` is its triggering
        event's position in *batch*).

        Detection runs in two phases.  First every detector program scans
        the batch (``scan_batch``: one freshness read of the whole batch
        and the ``k`` threshold), reading each event as the per-event loop
        would right after inserting it
        (:meth:`~repro.graph.dynamic_index.DynamicEdgeIndex.fresh_batch`),
        and then the batch is inserted into D once.  Then each program's
        ``process_batch`` computes the audiences of all the triggers its
        scan found, in one call per batch.  Engines sharing one D
        (co-hosted partitions) go through the same rule
        (:meth:`~repro.graph.dynamic_index.DynamicEdgeIndex.enter`): the
        first engine at a batch scans and inserts it, and every program
        with the same ``(tau, k, action)``, in this engine or another, reads
        the kept scan.  There is no other path: the scan is exact because
        programs read D only through it, which is why the constructor
        refuses a program without ``scan_batch`` / ``process_batch``.

        Each program's ``process_batch`` returns one columnar batch;
        several programs' batches merge by
        :meth:`~repro.core.recommendation.RecommendationBatch.by_event`
        into the per-event loop's order, so downstream layers — partitions,
        brokers, the delivery funnel — see one shape.

        With latency tracking enabled, one *amortized* per-event sample
        (batch wall time / batch size) is recorded per batch rather than one
        sample per event.
        """
        n = len(batch)
        if n == 0:
            return EMPTY_RECOMMENDATION_BATCH
        started = time.perf_counter() if self._track_latency else 0.0
        detectors = self.detectors
        index = self.dynamic_index
        # Scan phase: every program reads the batch, then it is inserted.
        opened = index.enter(batch, self)
        triggers = [detector.scan_batch(batch, now) for detector in detectors]
        if opened:
            index.insert_batch(batch)
        # Audience phase: once per batch and detector program.
        outs = [
            detector.process_batch(batch, now, found)
            for detector, found in zip(detectors, triggers)
        ]
        out = outs[0] if len(outs) == 1 else RecommendationBatch.concat_all(
            recs for _i, recs in RecommendationBatch.by_event(outs)
        )
        emitted = len(out)
        self.stats.events_processed += n
        self.stats.recommendations_emitted += emitted
        if self._track_latency:
            self.stats.query_latency.add((time.perf_counter() - started) / n)
        return out

    def process_stream(
        self, events: list[EdgeEvent], batch_size: int = 1
    ) -> list[Recommendation]:
        """Convenience: process a list of events, returning all candidates.

        Drives the stream through the columnar :meth:`process_batch` path
        in chunks of ``batch_size`` (one-event batches at the default of
        1); the per-event reference is :meth:`process`, called by name.
        """
        recommendations: list[Recommendation] = []
        for batch in iter_event_batches(events, batch_size):
            recommendations.extend(self.process_batch(batch))
        return recommendations

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def reload_static_index(self, static_index: StaticFollowerIndex) -> None:
        """Swap in a freshly-loaded S snapshot without pausing the stream.

        Mirrors production's periodic offline load: every detector program
        is rebound to the new index; D and all in-flight freshness state
        are untouched.  Detectors that do not support rebinding (no
        ``rebind_static``) raise — hosting such a program on an engine
        that reloads would silently serve stale data.
        """
        for detector in self.detectors:
            rebind = getattr(detector, "rebind_static", None)
            if rebind is None:
                raise TypeError(
                    f"detector {detector.name!r} does not support "
                    "rebind_static; cannot hot-reload S under it"
                )
            rebind(static_index)
        self.static_index = static_index

    def prune(self, now: float) -> int:
        """Evict expired edges from D; returns the number removed."""
        return self.dynamic_index.prune_expired(now)

    def memory_bytes(self) -> dict[str, int]:
        """Approximate footprint of both indexes, keyed by structure."""
        return {
            "static_index": self.static_index.memory_bytes(),
            "dynamic_index": self.dynamic_index.memory_bytes(),
        }
