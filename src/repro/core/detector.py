"""The detector protocol: one "program" over the graph infrastructure.

The paper separates "the partitioned graph infrastructure that maintains the
relevant data structures" from "the 'program' that performs the motif
detection", and anticipates multiple motif programs sharing the
infrastructure.  ``OnlineDetector`` is that program interface; the engine
and the partition servers drive any number of them off the same S and D.
Every shipped program is a :class:`~repro.core.diamond.DiamondDetector` —
the paper's diamond, or a declarative motif compiled onto it
(:func:`repro.motif.compile_motif`).

A program has three entry points.  The engine, which owns the inserts
(programs are built with ``inserts_edges=False``), calls the two batched
ones: ``scan_batch`` once per batch just before inserting it, collecting
the triggers it returns, then ``process_batch`` once for the whole batch
with those triggers.  The scan reads each event as the per-event loop
would right after inserting it
(:meth:`repro.graph.dynamic_index.DynamicEdgeIndex.fresh_batch`), which is
what makes batched processing exactly equivalent to the per-event loop; it
holds only for programs that read D through that scan, so an engine
refuses a program without them.
``process_batch`` returns one columnar
:class:`~repro.core.recommendation.RecommendationBatch` for the whole
batch: its trigger groups in event order, each stamped with its
triggering event's batch position (``RecommendationGroup.event``; the
shared empty batch when nothing triggered).  ``on_edge`` is the per-event
reference the engine's :meth:`~repro.core.engine.MotifEngine.process`
calls.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.batch import EventBatch
from repro.core.events import EdgeEvent
from repro.core.recommendation import Recommendation, RecommendationBatch


@runtime_checkable
class OnlineDetector(Protocol):
    """A motif-detection program driven by live edge events."""

    @property
    def name(self) -> str:
        """Stable identifier used in recommendation provenance."""
        ...

    def on_edge(
        self, event: EdgeEvent, now: float | None = None
    ) -> list[Recommendation]:
        """React to one live edge; return any completed-motif candidates.

        ``now`` is the processing time (defaults to the event's creation
        time); queue consumers pass their arrival clock so reordered
        deliveries are handled.  Implementations must be deterministic
        given (their indexes' state, the event, now) so that replicated
        partitions produce identical results.
        """
        ...

    def scan_batch(
        self, batch: EventBatch, now: float | None
    ) -> list[tuple[int, object]]:
        """Scan *batch* before its edges are in D, each event as if just
        inserted; return its triggers as ``(i, fresh)`` pairs."""
        ...

    def process_batch(
        self,
        batch: EventBatch,
        now: float | None = None,
        triggers: list[tuple[int, object]] | None = None,
    ) -> RecommendationBatch:
        """Compute the audiences of *triggers* (found by
        :meth:`scan_batch`) as one candidate batch in event order."""
        ...
