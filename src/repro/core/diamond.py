"""Online diamond-motif detection — the production algorithm of §2.

When a live ``B -> C`` edge arrives:

1. insert it into the dynamic index **D**;
2. query D for the other B's with a fresh (within ``tau``) edge to C — the
   *top half* of the diamond;
3. if at least ``k`` fresh B's point at C, look up each B's sorted follower
   list in the static index **S** and compute the **k-overlap** — every A
   following at least ``k`` of the fresh B's.  With exactly ``k`` fresh B's
   this is the plain intersection of the paper's worked example;
4. emit a raw candidate of C to each such A — boxed
   :class:`~repro.core.recommendation.Recommendation` objects on the
   per-event path, one columnar
   :class:`~repro.core.recommendation.RecommendationGroup` per trigger on
   the batched path (the k-overlap's recipient array flows straight into
   the group, unboxed).

The detector is deliberately stateless beyond its two indexes, so replicas
holding identical S shards over the same D produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import EventBatch
from repro.core.events import EdgeEvent
from repro.core.params import DetectionParams
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.graph.dynamic_index import DynamicEdgeIndex, FreshColumns, FreshEdge
from repro.graph.intersect import k_overlap_arrays
from repro.graph.static_index import StaticFollowerIndex

#: Cache-miss sentinel for the batch path's follower-array memo (``None``
#: is a legitimate cached value meaning "empty follower list").
_MISSING = object()


def _absent(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mask of *values* not in the sorted, non-empty *members* (one
    binary-search probe per value; no sort of the concatenation)."""
    positions = np.minimum(np.searchsorted(members, values), len(members) - 1)
    return members[positions] != values


@dataclass
class DiamondStats:
    """Counters the detector maintains for observability."""

    events_seen: int = 0
    triggers: int = 0
    candidates_emitted: int = 0
    #: Events whose target had fewer than k fresh sources (early exit).
    below_threshold: int = 0
    #: Fresh B's whose follower list was empty in this partition's S shard.
    empty_follower_lists: int = 0


class DiamondDetector:
    """The diamond-motif program over a (S, D) pair."""

    def __init__(
        self,
        static_index: StaticFollowerIndex,
        dynamic_index: DynamicEdgeIndex,
        params: DetectionParams | None = None,
        inserts_edges: bool = True,
    ) -> None:
        """Create a detector over existing indexes.

        Args:
            static_index: the partition's S shard (B -> sorted A's).
            dynamic_index: the complete D (possibly shared with the
                other partitions of this process).
            params: k / tau configuration; defaults to production values.
            inserts_edges: when True (standalone use) the detector inserts
                each event into D itself; the engine sets this False so one
                insert feeds all co-hosted detector programs.
        """
        self.params = params or DetectionParams()
        if self.params.tau > dynamic_index.retention:
            raise ValueError(
                f"params.tau={self.params.tau} exceeds the dynamic index's "
                f"retention={dynamic_index.retention}"
            )
        self._static = static_index
        self._dynamic = dynamic_index
        self._inserts_edges = inserts_edges
        #: Batch-path memo of B -> zero-copy int64 view of B's follower
        #: list (None = empty).  Exact because S is immutable; invalidated
        #: when a new S snapshot is bound.
        self._follower_arrays: dict[int, np.ndarray | None] = {}
        self.stats = DiamondStats()

    @property
    def name(self) -> str:
        """Detector program identifier."""
        return "diamond"

    def rebind_static(self, static_index: StaticFollowerIndex) -> None:
        """Swap in a freshly-loaded S snapshot (periodic offline reload).

        The production system recomputes the ``A -> B`` edges offline and
        "loaded into the system periodically"; swapping the reference is
        atomic under the GIL, so an engine can reload without pausing the
        event stream.  D is untouched — recent dynamic edges remain valid.
        """
        self._static = static_index
        self._follower_arrays = {}

    # ------------------------------------------------------------------
    # Event path
    # ------------------------------------------------------------------

    def on_edge(self, event: EdgeEvent, now: float | None = None) -> list[Recommendation]:
        """Process one live ``B -> C`` edge; return completed-motif candidates.

        Args:
            event: the live edge; its ``created_at`` stamps the D entry.
            now: processing time used for the freshness window.  Defaults
                to the event's creation time, which is exact for in-order
                streams; queue consumers pass their arrival clock so
                late-arriving edges still see every edge created before
                them (real queues reorder).
        """
        self.stats.events_seen += 1
        if now is None:
            now = event.created_at
        if self._inserts_edges:
            self._dynamic.insert(
                event.actor, event.target, event.created_at, action=event.action
            )

        fresh = self._dynamic.fresh_sources(
            event.target, now=max(now, event.created_at), tau=self.params.tau
        )
        if len(fresh) < self.params.k:
            self.stats.below_threshold += 1
            return []

        recipients = self._audience(event.target, fresh)
        if not recipients:
            return []
        self.stats.triggers += 1
        self.stats.candidates_emitted += len(recipients)
        via = tuple(edge.source for edge in fresh)
        return [
            Recommendation(
                recipient=a,
                candidate=event.target,
                created_at=event.created_at,
                motif=self.name,
                action=event.action,
                via=via,
            )
            for a in recipients
        ]

    def process_batch(
        self, batch: EventBatch, now: float | None = None
    ) -> list[RecommendationBatch]:
        """Process a columnar micro-batch; one candidate batch per event.

        Emits exactly what per-event :meth:`on_edge` calls would — same
        recommendations, same statistics — while amortizing interpreter
        overhead: D is queried through one
        :meth:`~repro.graph.dynamic_index.DynamicEdgeIndex
        .fresh_sources_multi` call per distinct-target run (with the
        ``min_count=k`` hint skipping cold targets entirely), and S follower
        lookups are memoized across the batch's events.  Output stays
        columnar: each triggering event's audience is one
        :class:`~repro.core.recommendation.RecommendationGroup` wrapping
        the k-overlap's recipient array directly — no per-candidate boxing
        (iterate the batch to decode the boxed view on demand).

        When constructed with ``inserts_edges=False`` the caller owns the
        inserts and must pass batches whose targets are distinct (an engine
        run, see :meth:`~repro.graph.dynamic_index.DynamicEdgeIndex
        .apply_runs`) with those edges already inserted; standalone
        detectors accept arbitrary batches and insert through the same
        rule.  Either way the run's D scan comes from
        :meth:`~repro.graph.dynamic_index.DynamicEdgeIndex.fresh_run`, so
        partitions sharing one D scan each run once.
        """
        if not self._inserts_edges:
            return self._detect_run(batch, now)
        results: list[RecommendationBatch] = []
        for run in self._dynamic.apply_runs(batch, self):
            results += self._detect_run(run, now)
        return results

    def _detect_run(
        self, run: EventBatch, now: float | None
    ) -> list[RecommendationBatch]:
        """Detection over a distinct-target run whose edges are in D:
        the run's (possibly kept) scan, then this partition's per-trigger
        k-overlap over its own S shard."""
        timestamps, _actors, targets, actions = run.columns()
        n = len(timestamps)
        stats = self.stats
        stats.events_seen += n
        params = self.params
        k = params.k
        fresh_lists = self._dynamic.fresh_run(run, now, params.tau, k)
        results: list[RecommendationBatch] = []
        append = results.append
        name = self.name
        no_candidates = EMPTY_RECOMMENDATION_BATCH
        below_threshold = 0
        for i, fresh in enumerate(fresh_lists):
            if len(fresh) < k:
                below_threshold += 1
                append(no_candidates)
                continue
            target = targets[i]
            recipients = self._audience_batch(target, fresh)
            if recipients is None:
                append(no_candidates)
                continue
            stats.triggers += 1
            stats.candidates_emitted += len(recipients)
            if type(fresh) is FreshColumns:
                # The witness column rides along unboxed; the group decodes
                # it to a tuple only if someone materializes a boxed view —
                # via tuples of viral triggers span hundreds of witnesses.
                via = fresh.sources
            else:
                via = tuple(edge[1] for edge in fresh)
            append(
                RecommendationBatch(
                    (
                        RecommendationGroup(
                            recipients,
                            candidate=target,
                            created_at=timestamps[i],
                            motif=name,
                            action=actions[i],
                            via=via,
                        ),
                    )
                )
            )
        stats.below_threshold += below_threshold
        return results

    def current_audience(self, target: int, now: float) -> list[int]:
        """The A's who would be notified about *target* right now.

        A read-only query (no insertion) used by the polling baseline and
        by tests to compare detector state against batch ground truth.
        """
        fresh = self._dynamic.fresh_sources(target, now=now, tau=self.params.tau)
        if len(fresh) < self.params.k:
            return []
        return self._audience(target, fresh)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _audience(self, target: int, fresh: list[FreshEdge]) -> list[int]:
        """Bottom half of the diamond: A's following >= k fresh B's."""
        params = self.params
        if (
            params.max_trigger_sources is not None
            and len(fresh) > params.max_trigger_sources
        ):
            # Keep the most recent sources; fresh is in ascending-timestamp
            # order, so the tail is the newest.
            fresh = fresh[-params.max_trigger_sources :]

        follower_lists = []
        for edge in fresh:
            a_list = self._static.followers_of(edge.source)
            if len(a_list):
                follower_lists.append(a_list)
            else:
                self.stats.empty_follower_lists += 1
        if len(follower_lists) < params.k:
            return []

        # S serves arena slices; ``tolist`` keeps the recipients Python ints.
        recipients = k_overlap_arrays(follower_lists, params.k).tolist()
        if not recipients:
            return []

        fresh_sources = {edge.source for edge in fresh}
        kept: list[int] = []
        for a in recipients:
            if params.exclude_candidate_recipient and a == target:
                continue
            if params.exclude_existing_followers:
                # Already following C per the static snapshot, or C's newest
                # followers themselves (their follow edge is in D, not yet
                # in S) — either way a pointless notification.
                if a in fresh_sources or self._static.has_edge(a, target):
                    continue
            kept.append(a)
        return kept

    def _audience_batch(
        self, target: int, fresh: list[tuple[float, int, object]]
    ) -> np.ndarray | None:
        """Vectorised :meth:`_audience` for the batched path.

        Identical audience, different execution and representation: each
        fresh B's follower list is fetched as a zero-copy int64 view
        (``follower_array``) and memoized on the detector
        (S is immutable until rebound, so reuse is exact), the k-overlap
        runs as one C-speed sort plus run-length threshold over the
        concatenation, and the exclusion filters apply as vectorized masks
        over the resulting recipient array.  The array is returned as-is —
        ascending, never boxed — ready to become a
        :class:`~repro.core.recommendation.RecommendationGroup` column
        (``None`` when the audience is empty).

        *fresh* is the raw representation from
        :meth:`~repro.graph.dynamic_index.DynamicEdgeIndex
        .fresh_sources_multi`: a list of stored ``(timestamp, source,
        action)`` tuples, or a :class:`~repro.graph.dynamic_index
        .FreshColumns` for ring-backed viral targets — whose source column
        is consumed with a single ``tolist`` instead of a per-edge unpack.
        """
        params = self.params
        if type(fresh) is FreshColumns:
            sources = fresh.sources_list()
        else:
            sources = [edge[1] for edge in fresh]
        if (
            params.max_trigger_sources is not None
            and len(sources) > params.max_trigger_sources
        ):
            # Keep the most recent sources; fresh is in ascending-timestamp
            # order, so the tail is the newest.
            sources = sources[-params.max_trigger_sources :]

        follower_arrays = self._follower_arrays
        static_follower_array = self._static.follower_array
        follower_lists = []
        for b in sources:
            arr = follower_arrays.get(b, _MISSING)
            if arr is _MISSING:
                # A zero-copy int64 arena slice (None when empty).
                arr = static_follower_array(b)
                follower_arrays[b] = arr
            if arr is not None:
                follower_lists.append(arr)
            else:
                self.stats.empty_follower_lists += 1
        k = params.k
        if len(follower_lists) < k:
            return None

        recipients = k_overlap_arrays(follower_lists, k)
        if not recipients.size:
            return None

        if params.exclude_existing_followers:
            # Drop A's already following C per the static snapshot with one
            # vectorized membership probe against C's sorted follower array
            # (memoized like any other) — burst triggers produce hundreds
            # of recipients, where the per-event path's per-recipient
            # binary search dominates the whole batch.
            target_followers = follower_arrays.get(target, _MISSING)
            if target_followers is _MISSING:
                target_followers = static_follower_array(target)
                follower_arrays[target] = target_followers
            if target_followers is not None:
                recipients = recipients[_absent(recipients, target_followers)]
            # C's newest followers themselves (their follow edge is in D,
            # not yet in S) are excluded too — the same probe against the
            # small (sorted) fresh-source set.
            if recipients.size and sources:
                fresh_sources = np.fromiter(sources, np.int64, len(sources))
                fresh_sources.sort()
                recipients = recipients[_absent(recipients, fresh_sources)]
        if params.exclude_candidate_recipient and recipients.size:
            recipients = recipients[recipients != target]
        if not recipients.size:
            return None
        return recipients
