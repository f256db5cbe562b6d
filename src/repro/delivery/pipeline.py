"""Composition of the funnel stages with full accounting.

``DeliveryPipeline.offer`` runs each raw candidate through the configured
filters in order; the first stage to reject wins (cheapest-first ordering
matters in production, and dedup — the cheapest and most selective — runs
first).  A :class:`~repro.sim.metrics.FunnelCounter` tracks survivors per
stage so the billions-to-millions reduction is directly observable.

``offer_batch`` is the columnar twin: a whole
:class:`~repro.core.recommendation.RecommendationBatch` (or a ranked
flush's :class:`~repro.core.recommendation.FlatRecommendations`) enters as
flat (recipient, candidate) columns, each stage answers with one boolean mask
(``allow_mask``), and the masks AND together *with short-circuit ordering
preserved* — a stage only ever sees (and only ever updates state for) the
candidates every earlier stage passed, so per-stage funnel counts and all
filter state match the per-candidate path exactly.  Only the final
survivors are boxed into :class:`Recommendation` objects for the notifier:
the paper's millions materialize, the billions never do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.core.recommendation import (
    CandidateColumns,
    ColumnarRecommendations,
    Recommendation,
)
from repro.delivery.dedup import DedupFilter
from repro.delivery.fatigue import FatigueFilter
from repro.delivery.notifier import PushNotification, PushNotifier
from repro.delivery.waking import WakingHoursFilter
from repro.sim.metrics import FunnelCounter

if TYPE_CHECKING:  # serving.cache imports from repro.delivery at runtime
    from repro.core.recommendation import RecommendationBatch
    from repro.delivery.scoring import TopKPerUserBuffer
    from repro.serving.cache import ServingCache


@runtime_checkable
class DeliveryFilter(Protocol):
    """One funnel stage: allow or reject a candidate at time *now*.

    ``allow`` decides one candidate (the boxed reference lane);
    ``allow_mask`` decides a batch, one boolean per candidate, and its
    decision sequence (and any state updates) must match per-candidate
    ``allow`` calls in column order.  The pipeline only hands a stage the
    candidates every earlier stage passed, which is what keeps stateful
    stages exact.
    """

    @property
    def name(self) -> str:
        """Stage label used in funnel accounting."""
        ...

    def allow(self, rec: Recommendation, now: float) -> bool:
        """True to pass the candidate to the next stage."""
        ...

    def allow_mask(self, columns: CandidateColumns, now: float) -> np.ndarray:
        """One boolean per candidate, as ``allow`` would answer in order."""
        ...


class DeliveryPipeline:
    """Raw candidates in, push notifications out, counters in between.

    The contract every consumer relies on:

    * **Stage order is evaluation order** — cheapest-and-most-selective
      first (dedup), and a rejection short-circuits: later stages never
      see (and never update state for) a rejected candidate.
    * **``offer_batch`` ≡ sequential ``offer``** — same survivors, same
      delivery order, same per-stage funnel counts key for key, same
      filter state afterwards.  The pipeline guarantees this by
      compressing the candidate columns after every stage, so a stateful
      stage's ``allow_mask`` only ever sees the earlier stages' survivors.

    >>> from repro.core.recommendation import (
    ...     RecommendationBatch, RecommendationGroup,
    ... )
    >>> pipeline = DeliveryPipeline(filters=[DedupFilter(window=60.0)])
    >>> batch = RecommendationBatch(
    ...     [RecommendationGroup([1, 2, 1], candidate=9, created_at=0.0)]
    ... )
    >>> [n.recipient for n in pipeline.offer_batch(batch, now=0.0)]
    [1, 2]
    >>> pipeline.funnel.stages
    {'raw': 3, 'dropped:dedup': 1, 'passed:dedup': 2, 'delivered': 2}
    """

    def __init__(
        self,
        filters: list[DeliveryFilter] | None = None,
        notifier: PushNotifier | None = None,
    ) -> None:
        """Create the pipeline.

        Args:
            filters: funnel stages in evaluation order; defaults to the
                production trio dedup -> waking hours -> fatigue.
            notifier: terminal sink (a fresh one when omitted).
        """
        if filters is None:
            filters = [DedupFilter(), WakingHoursFilter(), FatigueFilter()]
        self.filters = list(filters)
        self.notifier = notifier or PushNotifier()
        self.funnel = FunnelCounter()

    def offer(self, rec: Recommendation, now: float) -> PushNotification | None:
        """Run one raw candidate through the funnel.

        Returns the delivered notification, or ``None`` with the rejecting
        stage recorded in the funnel counters.
        """
        self.funnel.count("raw")
        for stage in self.filters:
            if not stage.allow(rec, now):
                self.funnel.count(f"dropped:{stage.name}")
                return None
            self.funnel.count(f"passed:{stage.name}")
        self.funnel.count("delivered")
        return self.notifier.deliver(rec, now)

    def offer_all(
        self, recs: Iterable[Recommendation], now: float
    ) -> list[PushNotification]:
        """Offer candidates arriving at the same time; returns deliveries.

        A ranked flush's columnar winners go through :meth:`offer_batch`
        unboxed; a boxed list takes the per-candidate loop (the reference
        lane the equivalence suites compare against).

        >>> from repro.delivery.scoring import TopKPerUserBuffer
        >>> ranker = TopKPerUserBuffer(k=1)
        >>> ranker.offer(Recommendation(1, 10, 0.0, via=(5,)))
        >>> ranker.offer(Recommendation(1, 11, 0.0, via=(5, 6)))
        >>> pipeline = DeliveryPipeline(filters=[DedupFilter(window=60.0)])
        >>> [n.recommendation.candidate
        ...  for n in pipeline.offer_all(ranker.flush(now=0.0), now=0.0)]
        [11]
        """
        if isinstance(recs, ColumnarRecommendations):
            return self.offer_batch(recs, now)
        return self._offer_each(recs, now)

    def _offer_each(
        self, recs: Iterable[Recommendation], now: float
    ) -> list[PushNotification]:
        """The per-candidate loop: :meth:`offer` for each, in order."""
        offered = (self.offer(rec, now) for rec in recs)
        return [pushed for pushed in offered if pushed is not None]

    def offer_batch(
        self, batch: ColumnarRecommendations, now: float
    ) -> list[PushNotification]:
        """Run a columnar candidate batch through the funnel, stage by stage.

        Exactly equivalent to offering each of the batch's candidates
        through :meth:`offer` in order — same survivors, same delivery
        order, same per-stage funnel counts, same filter state afterwards —
        but the candidates cross the funnel as flat columns: each stage
        masks the current survivor set, the pipeline compresses, and only
        the final survivors are boxed for the notifier.
        """
        n = len(batch)
        if n == 0:
            return []
        funnel = self.funnel
        funnel.count("raw", n)
        columns: CandidateColumns = batch.columns()
        indices: np.ndarray | None = None  # None = all candidates alive
        for stage in self.filters:
            mask = stage.allow_mask(columns, now)
            passed = int(mask.sum())
            dropped = len(columns) - passed
            # Count only what actually happened so the funnel dict matches
            # the per-candidate path's key-for-key (a stage nobody reached
            # or nobody passed never materializes a zero entry).
            if dropped:
                funnel.count(f"dropped:{stage.name}", dropped)
            if not passed:
                return []
            funnel.count(f"passed:{stage.name}", passed)
            if dropped:
                columns = columns.compress(mask)
                indices = (
                    np.flatnonzero(mask) if indices is None else indices[mask]
                )
        funnel.count("delivered", len(columns))
        survivors = (
            batch.to_recommendations()
            if indices is None
            else batch.select(indices)
        )
        deliver = self.notifier.deliver
        return [deliver(rec, now) for rec in survivors]

    def reduction_ratio(self) -> float:
        """Raw candidates per delivered push (the paper's headline ratio)."""
        return self.funnel.reduction_ratio("raw", "delivered")

    def stage_state(self) -> dict[str, dict[str, np.ndarray]]:
        """Every stateful stage's ``state_arrays()``, keyed
        ``filter_<stage name>``: the funnel's snapshot components."""
        return {
            f"filter_{stage.name}": stage.state_arrays()
            for stage in self.filters
            if hasattr(stage, "state_arrays")
        }

    def load_stage_state(
        self, components: dict[str, dict[str, np.ndarray]]
    ) -> None:
        """Load each stage's :meth:`stage_state` entry from *components*;
        a stage without one keeps its state."""
        for stage in self.filters:
            arrays = components.get(f"filter_{stage.name}")
            if arrays is not None:
                stage.load_state(arrays)


def release_window(
    candidates: "RecommendationBatch",
    now: float,
    delivery: DeliveryPipeline,
    ranker: "TopKPerUserBuffer | None" = None,
    serving: "ServingCache | None" = None,
) -> list[PushNotification]:
    """What the end of a delivery window does: rank, serving tap, funnel.

    With a *ranker* the window is the ranking window — the candidates
    buffer columnar, each user's top-k is released, and only those winners
    go on; they stay flat columns end to end, and only delivered survivors
    are ever boxed.  A *serving* cache merges the exact rows entering the
    funnel (downstream accounting only: it never changes what the funnel
    sees).  The live coalescer and WAL replay both end a window here, so
    a recovered deployment ranks and serves what the crashed one did.
    *delivery* is a :class:`DeliveryPipeline` or its sharded drop-in.
    """
    released: ColumnarRecommendations = candidates
    if ranker is not None:
        ranker.offer_batch(candidates)
        released = ranker.flush(now)
    if serving is not None:
        serving.ingest_batch(released, now)
    return delivery.offer_batch(released, now)
