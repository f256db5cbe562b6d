"""One partition server: an S shard, the complete D, detector programs.

"each partition needs to keep the complete D data structure (holding the
incoming B's to C's), since in principle any B can be in any partition.
Thus, every partition needs to handle the entire stream of edge creation
events" — so :meth:`PartitionServer.ingest` is called with *every* event,
while its S shard holds only the A's this partition owns.  The paper's
partitions are machines; partitions that share a process here share one D
(see :meth:`repro.cluster.cluster.Cluster.build`), which the first of them
to see an event inserts.
"""

from __future__ import annotations

from repro.core.batch import EventBatch
from repro.core.detector import OnlineDetector
from repro.core.diamond import DiamondDetector
from repro.core.engine import MotifEngine
from repro.core.events import EdgeEvent
from repro.core.params import DetectionParams
from repro.core.recommendation import Recommendation, RecommendationBatch
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.static_index import StaticFollowerIndex


class PartitionServer:
    """A single partition replica (one "machine" of the paper's cluster)."""

    def __init__(
        self,
        partition_id: int,
        replica_id: int,
        static_shard: StaticFollowerIndex,
        params: DetectionParams | None = None,
        detectors: list[OnlineDetector] | None = None,
        dynamic_index: DynamicEdgeIndex | None = None,
        max_edges_per_target: int | None = None,
        track_latency: bool = False,
    ) -> None:
        """Create a partition server.

        Args:
            partition_id: which A-shard this server holds.
            replica_id: replica index within the partition's replica set.
            static_shard: S restricted to this partition's A's.
            params: diamond parameters when using the default detector.
            detectors: custom detector programs (built over *static_shard*
                and *dynamic_index*, with ``inserts_edges=False``).
            dynamic_index: the complete D this replica reads — shared
                with every replica of its process by ``Cluster.build``;
                created fresh (private) when omitted.
            max_edges_per_target: per-C cap for the default D copy.
            track_latency: record per-event detection latency.
        """
        self.partition_id = partition_id
        self.replica_id = replica_id
        params = params or DetectionParams()
        self.params = params
        dynamic_index = dynamic_index or DynamicEdgeIndex(
            retention=params.tau, max_edges_per_target=max_edges_per_target
        )
        if detectors is None:
            detectors = [
                DiamondDetector(
                    static_shard, dynamic_index, params, inserts_edges=False
                )
            ]
        self._engine = MotifEngine(
            static_shard, dynamic_index, detectors, track_latency=track_latency
        )

    @property
    def name(self) -> str:
        """Diagnostic label, e.g. ``p3/r0``."""
        return f"p{self.partition_id}/r{self.replica_id}"

    @property
    def engine(self) -> MotifEngine:
        """The underlying single-machine engine."""
        return self._engine

    # ------------------------------------------------------------------
    # Serving interface
    # ------------------------------------------------------------------

    def ingest(
        self, event: EdgeEvent, now: float | None = None
    ) -> list[Recommendation]:
        """Consume one stream event; returns this shard's local candidates.

        Recipients are guaranteed to be A's owned by this partition (they
        can only come from the local S shard), so brokers can concatenate
        partition outputs without dedup.  ``now`` is the processing time
        for freshness (defaults to the event's creation time).
        """
        return self._engine.process(event, now)

    def ingest_batch(
        self, batch: EventBatch, now: float | None = None
    ) -> RecommendationBatch:
        """Consume a columnar micro-batch; one local candidate batch.

        Same candidates as calling :meth:`ingest` per event, with the work
        amortized by the engine's batched path: the batch is scanned and
        inserted once, then this shard's audiences are computed
        once for the whole batch
        (:meth:`~repro.core.engine.MotifEngine.process_batch_grouped`).
        The reply is one columnar
        (:class:`~repro.core.recommendation.RecommendationBatch`) of this
        shard's trigger groups in event order — each group carries its
        event's batch position — so it never boxes per candidate.
        """
        return self._engine.process_batch_grouped(batch, now)

    def query_audience(self, target: int, now: float) -> list[int]:
        """Read-only: local A's who currently qualify for *target*."""
        detector = self._engine.detectors[0]
        if not isinstance(detector, DiamondDetector):
            raise TypeError("query_audience requires a DiamondDetector program")
        return detector.current_audience(target, now)

    def reload_static(self, static_shard: StaticFollowerIndex) -> None:
        """Hot-swap this replica's S shard (periodic offline reload)."""
        self._engine.reload_static_index(static_shard)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def events_processed(self) -> int:
        """Stream events this replica has consumed."""
        return self._engine.stats.events_processed
