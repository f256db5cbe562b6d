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

The batched path splits this in two: steps 1–2 and the ``k`` threshold
run once per batch, reading each event as if just inserted
(:meth:`DiamondDetector.scan_batch`), steps 3–4 once per batch over every
trigger the scan found (:meth:`DiamondDetector.process_batch`), so a
target that triggers again and again within one batch costs one sort, not
one per trigger.

The detector is deliberately stateless beyond its two indexes, so replicas
holding identical S shards over the same D produce identical output.  It is
also what every declarative motif compiles to
(:func:`repro.motif.compile_motif`): a spec sets its name, an action filter
and its exclusions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch import EventBatch
from repro.core.events import ActionType, EdgeEvent
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

#: Largest int64: the sliding kernel's packed keys (``A * |Q| + position``
#: and ``window * (max A + 1) + A``) must stay below it.
_INT64_MAX = int(np.iinfo(np.int64).max)


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
    #: Events of the program's action whose target had fewer than k fresh
    #: sources (early exit); events of other actions are only seen.
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
        motif: str = "diamond",
        action: ActionType | None = None,
        exclude_witnesses: bool | None = None,
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
            motif: the name stamped on every candidate (a compiled motif
                spec's name; see :func:`repro.motif.compile_motif`).
            action: only events of this action trigger, and only D entries
                of this action count as witnesses; ``None`` accepts all.
            exclude_witnesses: drop recipients that are themselves fresh
                witnesses; ``None`` ties the cut to
                ``params.exclude_existing_followers``.
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
        self.name = motif
        self.action = action
        self.exclude_witnesses = (
            self.params.exclude_existing_followers
            if exclude_witnesses is None
            else exclude_witnesses
        )
        #: Batch-path memo of B -> zero-copy int64 view of B's follower
        #: list (None = empty).  Exact because S is immutable; invalidated
        #: when a new S snapshot is bound.
        self._follower_arrays: dict[int, np.ndarray | None] = {}
        self.stats = DiamondStats()

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
        if self.action is not None and event.action is not self.action:
            return []

        fresh = self._dynamic.fresh_sources(
            event.target,
            now=max(now, event.created_at),
            tau=self.params.tau,
            action=self.action,
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

    def scan_batch(
        self, batch: EventBatch, now: float | None
    ) -> list[tuple[int, object]]:
        """Scan phase over *batch*, the D position its engine entered.

        Reads the batch's freshness, each event as the per-event loop
        would right after inserting it (:meth:`~repro.graph.dynamic_index
        .DynamicEdgeIndex.fresh_batch`, so programs sharing one D scan each
        batch once per ``(tau, k, action)``), applies the action filter
        and the ``k`` threshold, and returns the triggers as ``(i, fresh)``
        pairs: the event's position in the batch and its raw fresh
        sources.  The results are owned, so they stay valid once the batch
        is inserted; the audience phase (:meth:`process_batch`) consumes
        them.
        """
        stats = self.stats
        stats.events_seen += len(batch)
        k = self.params.k
        action = self.action
        fresh_lists = self._dynamic.fresh_batch(batch, now, self.params.tau, k, action)
        matching = range(len(batch)) if action is None else [
            i for i, a in enumerate(batch.columns()[3]) if a is action
        ]
        triggers = [(i, fresh_lists[i]) for i in matching if len(fresh_lists[i]) >= k]
        stats.below_threshold += len(matching) - len(triggers)
        return triggers

    def process_batch(
        self,
        batch: EventBatch,
        now: float | None = None,
        triggers: list[tuple[int, object]] | None = None,
    ) -> RecommendationBatch:
        """Process a columnar micro-batch into one candidate batch.

        Emits exactly what per-event :meth:`on_edge` calls would — same
        recommendations, same statistics — in two phases.  The *scan*
        phase (:meth:`scan_batch`) runs once per batch, before it is
        inserted: one D read, the ``k`` threshold.  The *audience* phase
        runs once per batch over the *triggers* the scan found
        (:meth:`_audiences`): a target that triggers again and again
        within the batch is solved by one sort over its witnesses'
        follower lists (:meth:`_sliding_audience`), every other trigger by
        its own k-overlap (:meth:`_audience_batch`).  Output stays
        columnar: each triggering event's audience is one
        :class:`~repro.core.recommendation.RecommendationGroup` wrapping
        the recipient array directly — no per-candidate boxing — stamped
        with the event's batch position; the batch holds them in event order.

        An engine scans the batch itself and passes *triggers*.  Without
        them the detector scans here, and a standalone detector
        (``inserts_edges=True``) then inserts the batch.
        """
        if triggers is None:
            opened = self._dynamic.enter(batch, self)
            triggers = self.scan_batch(batch, now)
            if opened and self._inserts_edges:
                self._dynamic.insert_batch(batch)
        if not triggers:
            return EMPTY_RECOMMENDATION_BATCH
        groups: list[RecommendationGroup] = []
        timestamps, _actors, targets, actions = batch.columns()
        stats = self.stats
        name = self.name
        for (i, fresh), recipients in zip(
            triggers, self._audiences(triggers, targets)
        ):
            if recipients is None:
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
            groups.append(
                RecommendationGroup(
                    recipients, targets[i], timestamps[i], name, actions[i], via, i
                )
            )
        return RecommendationBatch(groups) if groups else EMPTY_RECOMMENDATION_BATCH

    def current_audience(self, target: int, now: float) -> list[int]:
        """The A's who would be notified about *target* right now.

        A read-only query (no insertion) used by the polling baseline and
        by tests to compare detector state against batch ground truth.
        """
        fresh = self._dynamic.fresh_sources(
            target, now=now, tau=self.params.tau, action=self.action
        )
        if len(fresh) < self.params.k:
            return []
        return self._audience(target, fresh)

    def explain(self) -> str:
        """The program's stages, one line each (``repro explain``)."""
        params = self.params
        action = self.action.value if self.action is not None else "any"
        stages = [
            f"scan D (tau={params.tau:g}s, action={action})",
            f"threshold (fresh witnesses >= {params.k})",
        ]
        if params.max_trigger_sources is not None:
            stages.append(f"cap (expand the newest {params.max_trigger_sources} witnesses)")
        stages.append(f"k-overlap of the witnesses' S follower lists (k={params.k})")
        if params.exclude_candidate_recipient:
            stages.append("exclude recipient == candidate")
        if self.exclude_witnesses:
            stages.append("exclude recipients among the fresh witnesses")
        if params.exclude_existing_followers:
            stages.append("exclude recipient -> candidate in S")
        stages.append(f"emit (motif={self.name})")
        lines = [f"kernel for motif {self.name!r}:"]
        lines += [f"  {i}. {stage}" for i, stage in enumerate(stages, 1)]
        return "\n".join(lines)

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
            # C's newest followers themselves (their follow edge is in D,
            # not yet in S), or already following C per the static
            # snapshot — either way a pointless notification.
            if self.exclude_witnesses and a in fresh_sources:
                continue
            if params.exclude_existing_followers and self._static.has_edge(a, target):
                continue
            kept.append(a)
        return kept

    def _witnesses(self, fresh) -> list[int]:
        """The fresh sources a trigger expands, newest last: all of them,
        or the newest ``max_trigger_sources`` (fresh is in ascending
        timestamp order, so the tail is the newest).

        *fresh* is the raw representation from
        :meth:`~repro.graph.dynamic_index.DynamicEdgeIndex
        .fresh_sources_multi`: a list of stored ``(timestamp, source,
        action)`` tuples, or a :class:`~repro.graph.dynamic_index
        .FreshColumns` for ring-backed viral targets — whose source column
        is consumed with a single ``tolist`` instead of a per-edge unpack.
        """
        if type(fresh) is FreshColumns:
            sources = fresh.sources_list()
        else:
            sources = [edge[1] for edge in fresh]
        cap = self.params.max_trigger_sources
        if cap is not None and len(sources) > cap:
            sources = sources[-cap:]
        return sources

    def _fetch(self, users) -> list[np.ndarray | None]:
        """Each user's follower list as a zero-copy int64 arena slice
        (``None`` when empty), memoized on the detector: S is immutable
        until rebound, so reuse is exact."""
        memo = self._follower_arrays
        follower_array = self._static.follower_array
        arrays = []
        for b in users:
            arr = memo.get(b, _MISSING)
            if arr is _MISSING:
                arr = memo[b] = follower_array(b)
            arrays.append(arr)
        return arrays

    def _audiences(
        self, triggers: list[tuple[int, object]], targets: list[int]
    ) -> list[np.ndarray | None]:
        """The audience phase: each trigger's recipients (``None`` when
        empty), aligned with *triggers*.

        Triggers are grouped by target.  A group of two or more is first
        offered to :meth:`_sliding_audience`, which solves the whole group
        with one sort when its witness windows slide along one sequence
        and it reads each witness list at least twice on average; a group
        it declines, and every single trigger, takes
        :meth:`_audience_batch` once per trigger — all of them at once
        when no target repeats (the cold firehose's usual batch).
        """
        if len({targets[i] for i, _fresh in triggers}) == len(triggers):
            return [
                self._audience_batch(targets[i], self._witnesses(fresh))
                for i, fresh in triggers
            ]
        groups: dict[int, list[int]] = {}
        for j, (i, _fresh) in enumerate(triggers):
            groups.setdefault(targets[i], []).append(j)
        audiences: list[np.ndarray | None] = [None] * len(triggers)
        for target, members in groups.items():
            windows = [self._witnesses(triggers[j][1]) for j in members]
            solved = self._sliding_audience(target, windows) if len(windows) > 1 else None
            if solved is None:
                solved = [self._audience_batch(target, w) for w in windows]
            for j, recipients in zip(members, solved):
                audiences[j] = recipients
        return audiences

    def _sliding_audience(
        self, target: int, windows: list[list[int]]
    ) -> list[np.ndarray | None] | None:
        """One target's audiences for a whole group of triggers at once,
        or ``None`` to decline the group (the caller then solves each
        trigger on its own).

        Within one batch a hub's windows usually slide along one witness
        sequence Q: each window is a contiguous slice ``Q[s_t:e_t]`` with
        ``s_t`` and ``e_t`` non-decreasing (a trigger adds its actor at the
        end and the cap or the freshness cutoff drops the oldest).  Then
        one sort of the ``(A, position)`` keys of Q's follower lists
        answers every window: A follows at least ``k`` witnesses of window
        *t* iff some ``k`` consecutive occurrences of A lie inside
        ``[s_t, e_t)``.  Each such run of occurrences qualifies A for an
        interval of windows, the intervals of one A are clipped so they do
        not overlap, the exclusions cut them, and the ``(window, A)`` pairs
        they expand to are sorted once.  Same recipients and statistics as
        :meth:`_audience_batch` per window.

        Declined: windows that are not one such sequence (a witness that
        acted twice, equal timestamps reordering the tail), groups reading
        each witness list less than twice on average (the per-trigger sorts
        are then no bigger than the shared one), and ids so large that the
        packed keys would overflow int64.
        """
        sequence = list(windows[0])
        position = {b: p for p, b in enumerate(sequence)}
        starts = [0]
        ends = [len(sequence)]
        for window in windows[1:]:
            start = position.get(window[0], len(sequence))
            overlap = len(sequence) - start
            if start < starts[-1] or overlap > len(window) or sequence[start:] != window[:overlap]:
                return None
            for b in window[overlap:]:
                if b in position:
                    return None
                position[b] = len(sequence)
                sequence.append(b)
            starts.append(start)
            ends.append(len(sequence))
        m = len(sequence)
        n = len(windows)
        if sum(map(len, windows)) < 2 * m:
            return None
        arrays = self._fetch(sequence)
        present = [p for p, arr in enumerate(arrays) if arr is not None]
        lists = [arrays[p] for p in present]
        base = max((int(arr[-1]) for arr in lists), default=0) + 1
        if base * max(m, n) > _INT64_MAX:
            return None

        # Per position p: the first window ending after p, and the number
        # of windows starting at or before it — windows [lo, hi) hold p.
        after = np.searchsorted(ends, np.arange(m), side="right")
        upto = np.searchsorted(starts, np.arange(m), side="right")
        if len(present) < m:
            # Every window counts the empty lists it reads, as one trigger
            # at a time would.
            missing = np.cumsum([0] + [arr is None for arr in arrays])
            self.stats.empty_follower_lists += int((missing[ends] - missing[starts]).sum())
        params = self.params
        k = params.k
        nothing: list[np.ndarray | None] = [None] * n
        if len(lists) < k:
            return nothing

        keys = np.concatenate(lists)
        keys *= m
        keys += np.repeat(np.asarray(present, dtype=np.int64), [len(arr) for arr in lists])
        keys.sort()
        ids = keys // m
        at = keys - ids * m
        # Runs of k consecutive occurrences of one A: first and last slot.
        if k > 1:
            runs = np.flatnonzero(ids[k - 1 :] == ids[: len(ids) - k + 1])
            ids, first, last = ids[runs], at[runs], at[runs + k - 1]
        else:
            first = last = at
        if params.exclude_existing_followers:
            target_followers = self._fetch((target,))[0]
            if target_followers is not None and len(ids):
                keep = _absent(ids, target_followers)
                ids, first, last = ids[keep], first[keep], last[keep]
        if params.exclude_candidate_recipient and len(ids):
            keep = ids != target
            ids, first, last = ids[keep], first[keep], last[keep]
        if not len(ids):
            return nothing

        lo, hi = after[last], upto[first]
        # One A's runs advance together, so its intervals overlap only
        # the previous one: start each where the previous ended.
        np.maximum(lo[1:], np.where(ids[1:] == ids[:-1], hi[:-1], 0), out=lo[1:])
        if self.exclude_witnesses:
            # A witness is C's newest follower in every window holding it:
            # cut those windows out of its intervals (the right-hand rest
            # becomes an extra interval).
            witnesses = np.asarray(sequence, dtype=np.int64)
            order = np.argsort(witnesses)
            bounds = np.searchsorted(ids, witnesses[order], side="left")
            spans = np.searchsorted(ids, witnesses[order], side="right") - bounds
            if spans.any():
                hit = np.repeat(bounds - (np.cumsum(spans) - spans), spans)
                hit += np.arange(len(hit))
                held = np.repeat(order, spans)
                ids = np.concatenate((ids, ids[hit]))
                lo = np.concatenate((lo, np.maximum(lo[hit], upto[held])))
                hi = np.concatenate((hi, hi[hit]))
                hi[hit] = np.minimum(hi[hit], after[held])
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if not total:
            return nothing
        pairs = np.repeat(lo - (np.cumsum(counts) - counts), counts)
        pairs += np.arange(total)
        pairs *= base
        pairs += np.repeat(ids, counts)
        pairs.sort()
        cuts = np.searchsorted(pairs, np.arange(n + 1) * base).tolist()
        recipients = pairs % base
        return [recipients[a:b] if b > a else None for a, b in zip(cuts, cuts[1:])]

    def _audience_batch(self, target: int, sources: list[int]) -> np.ndarray | None:
        """Vectorised :meth:`_audience` for one trigger's witnesses
        (:meth:`_witnesses`).

        Identical audience, different execution and representation: each
        witness's follower list is a zero-copy int64 view from the memo
        :meth:`_fetch` reads (inlined: this runs once per cold trigger),
        the k-overlap runs as one C-speed sort plus one k-apart
        comparison over the concatenation (most cold triggers stop there,
        with an empty audience), and the exclusion filters apply as
        vectorized masks over the resulting recipient array.  The array
        is returned as-is — ascending, never boxed — ready to become a
        :class:`~repro.core.recommendation.RecommendationGroup` column
        (``None`` when the audience is empty).
        """
        params = self.params
        memo = self._follower_arrays
        follower_lists = []
        for b in sources:
            arr = memo.get(b, _MISSING)
            if arr is _MISSING:
                arr = memo[b] = self._static.follower_array(b)
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
            target_followers = self._fetch((target,))[0]
            if target_followers is not None:
                recipients = recipients[_absent(recipients, target_followers)]
        if self.exclude_witnesses and recipients.size and sources:
            # C's newest followers themselves (their follow edge is in D,
            # not yet in S) are excluded too — the same probe against the
            # small (sorted) fresh-source set.
            fresh_sources = np.fromiter(sources, np.int64, len(sources))
            fresh_sources.sort()
            recipients = recipients[_absent(recipients, fresh_sources)]
        if params.exclude_candidate_recipient and recipients.size:
            recipients = recipients[recipients != target]
        if not recipients.size:
            return None
        return recipients
