"""The detector protocol: one "program" over the graph infrastructure.

The paper separates "the partitioned graph infrastructure that maintains the
relevant data structures" from "the 'program' that performs the motif
detection", and anticipates multiple motif programs sharing the
infrastructure.  ``OnlineDetector`` is that program interface; the engine
and the partition servers drive any number of them off the same S and D.

Detectors may additionally implement the *optional* two-phase batched
entry points::

    def scan_run(self, run: EventBatch, now: float | None, offset: int)
        -> list[tuple[int, object]]
    def process_batch(self, batch: EventBatch, now: float | None = None,
                      triggers: list[tuple[int, object]] | None = None)
        -> RecommendationBatch

When the engine owns the inserts (``inserts_edges=False``) it calls
``scan_run`` on each distinct-target run of a batch right after inserting
it (see :meth:`repro.core.batch.EventBatch.distinct_target_runs`; *offset*
is the run's position in the batch), collecting the triggers it returns,
then ``process_batch`` once for the whole batch with those triggers.  That
order is what makes batched processing exactly equivalent to the per-event
loop.  ``process_batch`` returns one columnar
:class:`~repro.core.recommendation.RecommendationBatch` for the whole
batch: its trigger groups in event order, each stamped with its
triggering event's batch position (``RecommendationGroup.event``; the
shared empty batch when nothing triggered).
The engine discovers both with ``getattr``; if any registered
detector lacks either, the engine processes the whole batch through the
interleaved per-event ``on_edge`` loop instead (exact for arbitrary
detectors, unamortized).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.core.events import EdgeEvent
from repro.core.recommendation import Recommendation


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
