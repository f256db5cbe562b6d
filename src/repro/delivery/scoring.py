"""Candidate scoring and top-k selection under the fatigue budget.

The fatigue filter caps pushes per user per day; production must then
choose *which* candidates spend the budget.  The natural score for a
diamond candidate combines:

* **corroboration** — how many fresh witnesses completed the motif (a
  candidate seen via 7 followings beats one seen via 3); and
* **freshness** — exponentially decayed age, because "what's hot" cools.

:class:`TopKPerUserBuffer` batches raw candidates per recipient over a
short window and releases only each user's top-k, which is how a ranked
delivery stage slots between detection and the fatigue filter.

The buffer is *columnar*: offers accumulate as
:class:`~repro.core.recommendation.RecommendationGroup` chunks — a viral
trigger's whole audience lands as one array reference, a boxed offer as a
one-recipient group — and :meth:`~TopKPerUserBuffer.flush` computes every
user's top-k with a handful of vectorized passes (lexsort over
recipient-grouped segments, with a per-segment argpartition pre-cut once
the buffer outgrows :data:`PRECUT_THRESHOLD`) and releases the winners as
:class:`~repro.core.recommendation.FlatRecommendations` columns: nothing
is boxed here, and downstream only the funnel's delivered survivors ever
are.  Semantics are identical to the per-candidate reference path
(``tests/test_delivery_scoring.py`` and ``tests/test_flat_winners.py``
enforce winners, tie-breaking, and flush order with Hypothesis).

>>> from repro.core.recommendation import RecommendationBatch, RecommendationGroup
>>> buffer = TopKPerUserBuffer(k=1)
>>> buffer.offer_batch(RecommendationBatch([
...     RecommendationGroup([1, 2], candidate=10, created_at=0.0, via=(5,)),
...     RecommendationGroup([1], candidate=11, created_at=0.0, via=(5, 6)),
... ]))
>>> released = buffer.flush(now=0.0)
>>> released.recipients.tolist(), released.candidates.tolist()
([1, 2], [11, 10])
>>> [(rec.recipient, rec.candidate, rec.via) for rec in released]
[(1, 11, (5, 6)), (2, 10, (5,))]
"""

from __future__ import annotations

import numpy as np

from repro.core.recommendation import (
    FlatRecommendations,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.util.validation import require_positive

#: Buffers below this many deduped rows flush with the pure ranking
#: lexsort; at or above it each recipient segment is first cut down to
#: its top-k score range with an O(n) introselect, so the O(n log n)
#: sort only sees potential winners (crossover measured by the E17c
#: record in docs/BENCHMARKS.md).
PRECUT_THRESHOLD = 4096


def decayed_scores(
    witnesses: np.ndarray,
    created_at: np.ndarray,
    now: float,
    half_life: float = 1_800.0,
) -> np.ndarray:
    """Corroboration x freshness scores for aligned candidate columns.

    The canonical score computation: ``max(witnesses, 1)`` scaled by
    ``2 ** (-age / half_life)``.  :func:`witness_score` delegates here so
    the scalar and vectorized paths agree bit for bit (``np.exp2`` keeps
    one code path; mixing in ``math.pow`` would not — numpy's SIMD
    kernels round differently in the last ulp).
    """
    require_positive(half_life, "half_life")
    ages = np.maximum(now - created_at, 0.0)
    return np.maximum(witnesses, 1).astype(np.float64) * np.exp2(
        -ages / half_life
    )


def witness_score(
    rec: Recommendation, now: float, half_life: float = 1_800.0
) -> float:
    """Corroboration x freshness score for one candidate.

    ``len(rec.via)`` is the witness count at emission time; age decays
    with the given *half_life* in seconds.  Candidates with no recorded
    witnesses (foreign detectors) score as single-witness.
    """
    return float(
        decayed_scores(
            np.array([len(rec.via)], dtype=np.int64),
            np.array([rec.created_at], dtype=np.float64),
            now,
            half_life,
        )[0]
    )


class TopKPerUserBuffer:
    """Batch candidates per recipient; flush releases each user's best k.

    Dedups by (recipient, candidate) within the buffer, keeping the
    first-offered instance with the highest witness count (later offers
    replace only on *strictly more* witnesses), so a re-firing motif does
    not crowd out distinct candidates.

    Offers are O(1) appends — a whole detection group lands as one chunk,
    a scalar offer as a one-recipient group — and all selection work
    happens in :meth:`flush`, vectorized over the accumulated columns.
    """

    def __init__(
        self,
        k: int = 2,
        half_life: float = 1_800.0,
        precut_threshold: int = PRECUT_THRESHOLD,
    ) -> None:
        """Create a buffer releasing at most *k* candidates per user.

        *precut_threshold* is the deduped-row count at which flush
        switches from the pure ranking lexsort to the per-recipient
        argpartition pre-cut (see :data:`PRECUT_THRESHOLD`).
        """
        require_positive(k, "k")
        require_positive(half_life, "half_life")
        require_positive(precut_threshold, "precut_threshold")
        self.k = k
        self.half_life = half_life
        self.precut_threshold = precut_threshold
        #: Offer-ordered, non-empty detection groups.
        self._chunks: list[RecommendationGroup] = []
        self.offered = 0

    def offer(self, rec: Recommendation) -> None:
        """Add one raw (boxed) candidate to the buffer (reference lane)."""
        self.offered += 1
        self._chunks.append(
            RecommendationGroup(
                [rec.recipient],
                rec.candidate,
                rec.created_at,
                motif=rec.motif,
                action=rec.action,
                via=rec.via,
            )
        )

    def offer_batch(self, batch: RecommendationBatch) -> None:
        """Offer every candidate of a columnar batch, in order.

        Equivalent to per-candidate :meth:`offer` calls, but nothing is
        boxed: each group's recipient column is buffered by reference and
        its shared metadata (candidate, witnesses, creation time) expands
        to columns only at :meth:`flush`.
        """
        self.offered += len(batch)
        self._chunks.extend(group for group in batch.groups if len(group))

    def _kept_rows(self) -> tuple[np.ndarray, ...]:
        """Flat indices surviving the in-buffer (recipient, candidate)
        dedup, their aligned columns, and each chunk's flat start offset.

        The per-candidate rule — replace only on strictly more witnesses —
        keeps, for each pair, the *first* occurrence of its maximum
        witness count; a stable lexsort on (recipient, candidate,
        -witnesses) puts exactly that occurrence first in each pair's run.
        """
        buffered = RecommendationBatch(self._chunks)
        recipients, candidates, witnesses, created_at = buffered.ranking_columns()
        order = np.lexsort((-witnesses, candidates, recipients))
        sorted_recipients = recipients[order]
        sorted_candidates = candidates[order]
        first_in_pair = np.r_[
            True,
            (sorted_recipients[1:] != sorted_recipients[:-1])
            | (sorted_candidates[1:] != sorted_candidates[:-1]),
        ]
        kept = order[first_in_pair]
        return (
            kept,
            sorted_recipients[first_in_pair],
            sorted_candidates[first_in_pair],
            witnesses[kept],
            created_at[kept],
            buffered.offsets(),
        )

    def _precut(
        self, recipients: np.ndarray, scores: np.ndarray
    ) -> np.ndarray | None:
        """Indices surviving the per-recipient argpartition pre-cut.

        ``recipients`` arrives recipient-sorted (from :meth:`_kept_rows`),
        so each recipient's rows form one contiguous segment.  Segments
        larger than *k* are cut to the rows scoring at least the
        segment's k-th best — *including* every boundary tie, so the
        ranking lexsort's (-score, candidate) tie-break still sees every
        row that could place in the top k and returns exactly the uncut
        sort's winners.  Returns ``None`` below :attr:`precut_threshold`,
        where one lexsort is cheaper than the extra pass.
        """
        if len(recipients) < self.precut_threshold:
            return None
        seg_first = np.r_[True, recipients[1:] != recipients[:-1]]
        bounds = np.r_[np.flatnonzero(seg_first), len(recipients)]
        keep = np.ones(len(recipients), dtype=bool)
        k = self.k
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            size = stop - start
            if size <= k:
                continue
            segment = scores[start:stop]
            kth_best = np.partition(segment, size - k)[size - k]
            keep[start:stop] = segment >= kth_best
        return np.flatnonzero(keep)

    def pending(self) -> int:
        """Distinct (recipient, candidate) pairs currently buffered."""
        if not self._chunks:
            return 0
        return len(self._kept_rows()[0])

    def flush(self, now: float) -> FlatRecommendations:
        """Release each user's top-k by score; clears the buffers.

        Output is ordered by (recipient, descending score, candidate) so
        downstream filters see each user's best candidate first — the
        fatigue filter then spends the budget on the highest-scoring
        ones.  The winners leave as flat aligned columns whose rows point
        back at their emitting groups for ``via`` / ``motif`` / ``action``;
        nothing is boxed here (iterating the result boxes lazily), and
        everything below the cut is dropped with the buffers.

        >>> buffer = TopKPerUserBuffer(k=1)
        >>> buffer.offer(Recommendation(1, 10, 0.0, via=(5,)))
        >>> buffer.offer(Recommendation(1, 11, 0.0, via=(5, 6)))
        >>> released = buffer.flush(now=0.0)
        >>> len(released), released.witnesses.tolist(), released[0].candidate
        (1, [2], 11)
        >>> buffer.flush(now=1.0) == []
        True
        """
        chunks = self._chunks
        if not chunks:
            return FlatRecommendations.from_boxed(())
        kept, recipients, candidates, witnesses, created_at, starts = (
            self._kept_rows()
        )
        scores = decayed_scores(witnesses, created_at, now, self.half_life)
        survivors = self._precut(recipients, scores)
        if survivors is not None:
            kept, recipients, candidates, witnesses, created_at, scores = (
                column[survivors]
                for column in (
                    kept, recipients, candidates, witnesses, created_at, scores
                )
            )
        ranking = np.lexsort((candidates, -scores, recipients))
        ranked_recipients = recipients[ranking]
        run_first = np.r_[True, ranked_recipients[1:] != ranked_recipients[:-1]]
        run_starts = np.flatnonzero(run_first)
        run_ids = np.cumsum(run_first) - 1
        rank_in_run = np.arange(len(ranking)) - run_starts[run_ids]
        winners = ranking[rank_in_run < self.k]
        # Only the chunks that placed a winner travel on as sources.
        used, source_index = np.unique(
            np.searchsorted(starts, kept[winners], side="right") - 1,
            return_inverse=True,
        )
        self._chunks = []
        return FlatRecommendations(
            recipients[winners],
            candidates[winners],
            created_at[winners],
            witnesses[winners],
            source_index,
            [chunks[i] for i in used.tolist()],
        )
