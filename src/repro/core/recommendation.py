"""The raw recommendation candidates the detectors emit.

A :class:`Recommendation` is *raw*: the same (recipient, candidate) pair may
be emitted repeatedly as a motif keeps re-firing while new B's pile onto a
hot C.  Production generates "billions of raw candidates" a day and the
delivery pipeline (:mod:`repro.delivery`) reduces them to millions of push
notifications; we preserve that split.

The *columnar* shapes keep that raw volume out of the Python object heap:

* :class:`RecommendationGroup` — one detection trigger's emission: an
  ``int64`` recipient array plus the metadata every recipient shares
  (candidate, creation time, motif, action, witnesses);
* :class:`RecommendationBatch` — an ordered collection of groups, the
  native currency from the batched detector through the delivery funnel.
  It iterates (lazily) as the exact :class:`Recommendation` sequence the
  per-candidate path would have produced, so any consumer that only wants
  boxed objects still gets them — but the hot path (the funnel's
  ``offer_batch``) consumes the flat columns and boxes only the final
  survivors, the paper's millions rather than billions;
* :class:`FlatRecommendations` — one row per candidate in an arbitrary
  (ranked) order: what the top-k flush releases, and the single currency
  from there through the (sharded) funnel and into the serving cache.

``docs/ARCHITECTURE.md`` maps where these shapes sit in the end-to-end
columnar path (detector -> engine -> broker -> push queue -> coalescer ->
funnel) and the equivalence-testing convention that keeps the boxed and
columnar views interchangeable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.events import ActionType
from repro.graph.ids import UserId


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One raw candidate: tell *recipient* about *candidate*.

    Attributes:
        recipient: the A who should receive the push notification.
        candidate: the C being recommended (account or content id).
        created_at: detection time (the triggering edge's timestamp).
        motif: name of the motif program that fired (e.g. ``"diamond"``).
        action: the action type of the triggering edge.
        via: the fresh B's whose edges completed the motif, in timestamp
            order — the "3 of the people you follow just followed C"
            explanation string comes from here.  Every fresh witness,
            never cut to ``max_trigger_sources`` (which caps only the
            witnesses whose follower lists the audience expands).
    """

    recipient: UserId
    candidate: UserId
    created_at: float
    motif: str = "diamond"
    action: ActionType = field(default=ActionType.FOLLOW, compare=False)
    via: tuple[UserId, ...] = field(default=(), compare=False)

    def key(self) -> tuple[UserId, UserId]:
        """The dedup key used downstream: (recipient, candidate)."""
        return (self.recipient, self.candidate)


class RecommendationGroup:
    """One detection group: shared metadata over an ``int64`` recipient array.

    A single motif trigger recommends the same candidate to every recipient
    in its audience; only the recipient varies.  Storing the audience as one
    numpy column (plus one copy of the shared metadata) is what removes the
    per-candidate dataclass boxing from the burst-heavy hot path.

    ``via`` may be passed either as the usual tuple or as an ``int64``
    numpy array (the detector hands over its freshness-scan column
    unboxed); :attr:`via` always reads back as a tuple, materialized once.
    Like :attr:`Recommendation.via` it holds every fresh witness, uncapped
    by ``max_trigger_sources``.

    ``event`` is the batch position of the edge event that triggered the
    group; :meth:`RecommendationBatch.by_event` regroups gathered
    partition replies by it.
    """

    __slots__ = (
        "recipients",
        "candidate",
        "created_at",
        "motif",
        "action",
        "_via",
        "event",
        "_recipients_list",
    )

    def __init__(
        self,
        recipients: np.ndarray | Sequence[UserId],
        candidate: UserId,
        created_at: float,
        motif: str = "diamond",
        action: ActionType = ActionType.FOLLOW,
        via: tuple[UserId, ...] | np.ndarray = (),
        event: int = 0,
    ) -> None:
        if type(recipients) is np.ndarray:
            self.recipients = recipients
            self._recipients_list: list[int] | None = None
        else:
            self._recipients_list = list(recipients)
            self.recipients = np.asarray(self._recipients_list, dtype=np.int64)
        self.candidate = candidate
        self.created_at = created_at
        self.motif = motif
        self.action = action
        self._via = via
        self.event = event

    def __len__(self) -> int:
        return len(self.recipients)

    @property
    def via(self) -> tuple[UserId, ...]:
        """The shared witness tuple (decoded from the column on first use)."""
        via = self._via
        if type(via) is not tuple:
            via = self._via = tuple(via.tolist())
        return via

    @property
    def num_witnesses(self) -> int:
        """Witness count without materializing the tuple."""
        return len(self._via)

    def recipients_list(self) -> list[int]:
        """The recipient column as plain Python ints (cached ``tolist``)."""
        recipients = self._recipients_list
        if recipients is None:
            recipients = self._recipients_list = self.recipients.tolist()
        return recipients

    def with_recipients(self, recipients: np.ndarray) -> "RecommendationGroup":
        """A new group over *recipients* sharing this group's metadata.

        The delivery shard splitter's primitive: a trigger's audience is
        partitioned by recipient hash, and each shard's slice keeps one
        reference to the shared (candidate, via, ...) metadata — nothing
        per recipient is copied or boxed.
        """
        return RecommendationGroup(
            recipients,
            self.candidate,
            self.created_at,
            motif=self.motif,
            action=self.action,
            via=self._via,
            event=self.event,
        )

    def recommendation_at(self, i: int) -> Recommendation:
        """Box the *i*-th recipient's :class:`Recommendation`."""
        return Recommendation(
            recipient=self.recipients_list()[i],
            candidate=self.candidate,
            created_at=self.created_at,
            motif=self.motif,
            action=self.action,
            via=self.via,
        )

    def __iter__(self) -> Iterator[Recommendation]:
        candidate = self.candidate
        created_at = self.created_at
        motif = self.motif
        action = self.action
        via = self.via
        for recipient in self.recipients_list():
            yield Recommendation(
                recipient=recipient,
                candidate=candidate,
                created_at=created_at,
                motif=motif,
                action=action,
                via=via,
            )


class CandidateColumns:
    """A flat columnar view over a batch's candidates (funnel currency).

    Positionally-aligned ``int64`` columns — one entry per raw candidate —
    plus cached plain-list decodings for the stages whose state lives in
    Python dicts.  ``compress`` narrows the view to a boolean mask's
    survivors, which is how the pipeline threads short-circuit semantics
    through vectorized stages.
    """

    __slots__ = ("recipients", "candidates", "_recipients_list", "_candidates_list")

    def __init__(
        self,
        recipients: np.ndarray,
        candidates: np.ndarray,
        recipients_list: list[int] | None = None,
        candidates_list: list[int] | None = None,
    ) -> None:
        self.recipients = recipients
        self.candidates = candidates
        self._recipients_list = recipients_list
        self._candidates_list = candidates_list

    def __len__(self) -> int:
        return len(self.recipients)

    def recipients_list(self) -> list[int]:
        """Recipient ids as plain ints (cached one-shot ``tolist``)."""
        out = self._recipients_list
        if out is None:
            out = self._recipients_list = self.recipients.tolist()
        return out

    def candidates_list(self) -> list[int]:
        """Candidate ids as plain ints (cached one-shot ``tolist``)."""
        out = self._candidates_list
        if out is None:
            out = self._candidates_list = self.candidates.tolist()
        return out

    def compress(self, mask: np.ndarray) -> "CandidateColumns":
        """The view restricted to ``mask``'s True positions, order kept."""
        return CandidateColumns(self.recipients[mask], self.candidates[mask])


class ColumnarRecommendations:
    """What the columnar shapes share: a lazy boxed-sequence view.

    Subclasses supply ``__len__`` and ``__iter__`` (boxing on demand) plus
    the funnel's read surface — ``columns()``, ``ranking_columns()`` and
    ``select(indices)``.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ColumnarRecommendations, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def to_recommendations(self) -> list[Recommendation]:
        """Materialize the full boxed candidate list (baselines, tests)."""
        return list(self)


class RecommendationBatch(ColumnarRecommendations):
    """A columnar candidate set: the native detection -> delivery currency.

    An ordered sequence of :class:`RecommendationGroup`s.  Iterating yields
    exactly the boxed :class:`Recommendation` sequence the per-candidate
    path would emit (group order, then recipient order within each group),
    so the batch is drop-in wherever a candidate list was consumed; the
    funnel instead reads :meth:`columns` and never boxes non-survivors.

    Batches are treated as immutable once emitted — merging produces a new
    batch (:meth:`concat_all`), and the shared :data:`EMPTY_RECOMMENDATION_BATCH`
    stands in for "no candidates" without allocating.
    """

    __slots__ = ("groups", "_total", "_offsets", "_columns")

    def __init__(self, groups: Iterable[RecommendationGroup] = ()) -> None:
        self.groups: list[RecommendationGroup] = list(groups)
        self._total: int | None = None
        self._offsets: np.ndarray | None = None
        self._columns: CandidateColumns | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def concat_all(
        cls, batches: Iterable["RecommendationBatch"]
    ) -> "RecommendationBatch":
        """One batch holding every group of *batches*, in input order.

        The delivery coalescer's merge: group arrays are shared, never
        copied, and degenerate inputs alias (a single non-empty input is
        returned as-is; an all-empty input is the shared empty batch).

        >>> a = RecommendationBatch(
        ...     [RecommendationGroup([1, 2], candidate=9, created_at=0.0)]
        ... )
        >>> b = RecommendationBatch(
        ...     [RecommendationGroup([3], candidate=8, created_at=1.0)]
        ... )
        >>> merged = RecommendationBatch.concat_all(
        ...     [a, EMPTY_RECOMMENDATION_BATCH, b]
        ... )
        >>> [rec.recipient for rec in merged]
        [1, 2, 3]
        >>> RecommendationBatch.concat_all([a]) is a
        True
        """
        non_empty = [batch for batch in batches if batch.groups]
        if not non_empty:
            return EMPTY_RECOMMENDATION_BATCH
        if len(non_empty) == 1:
            return non_empty[0]
        groups: list[RecommendationGroup] = []
        for batch in non_empty:
            groups.extend(batch.groups)
        return cls(groups)

    @classmethod
    def by_event(
        cls, batches: Iterable["RecommendationBatch"]
    ) -> list[tuple[int, "RecommendationBatch"]]:
        """Per-event attribution of gathered partition replies.

        Each reply holds one partition's trigger groups in event order; a
        stable sort of all their groups by :attr:`RecommendationGroup
        .event` yields ``(event, batch)`` for every event that triggered,
        ascending — the order a per-event loop over the partitions would
        have emitted (events in order, partitions in order within one).
        """
        event_of = attrgetter("event")
        groups = sorted((g for batch in batches for g in batch.groups), key=event_of)
        return [(event, cls(run)) for event, run in itertools.groupby(groups, event_of)]

    # ------------------------------------------------------------------
    # Sequence protocol (lazy boxed view)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        total = self._total
        if total is None:
            total = self._total = sum(len(group) for group in self.groups)
        return total

    def __iter__(self) -> Iterator[Recommendation]:
        for group in self.groups:
            yield from group

    def __getitem__(self, i: int) -> Recommendation:
        if i < 0:
            i += len(self)
        group_index = int(
            np.searchsorted(self.offsets(), i, side="right") - 1
        )
        if not 0 <= group_index < len(self.groups):
            raise IndexError(i)
        offset = int(self.offsets()[group_index])
        return self.groups[group_index].recommendation_at(i - offset)

    # ------------------------------------------------------------------
    # Columnar views
    # ------------------------------------------------------------------

    def offsets(self) -> np.ndarray:
        """Flat start offset of each group (cached, length ``num_groups``)."""
        offsets = self._offsets
        if offsets is None:
            sizes = np.fromiter(
                (len(group) for group in self.groups),
                dtype=np.int64,
                count=len(self.groups),
            )
            offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])) if len(sizes) else sizes
            self._offsets = offsets
        return offsets

    def columns(self) -> CandidateColumns:
        """The flattened (recipients, candidates) columns (cached).

        ``candidates`` repeats each group's shared candidate across its
        recipients so both columns align per raw candidate.
        """
        columns = self._columns
        if columns is None:
            groups = self.groups
            if not groups:
                columns = CandidateColumns(_EMPTY_INT64, _EMPTY_INT64, [], [])
            elif len(groups) == 1:
                group = groups[0]
                n = len(group)
                columns = CandidateColumns(
                    group.recipients,
                    np.full(n, group.candidate, dtype=np.int64),
                    group.recipients_list(),
                    [group.candidate] * n,
                )
            else:
                recipients = np.concatenate([g.recipients for g in groups])
                sizes = [len(g) for g in groups]
                candidates = np.repeat(
                    np.fromiter(
                        (g.candidate for g in groups),
                        dtype=np.int64,
                        count=len(groups),
                    ),
                    sizes,
                )
                columns = CandidateColumns(recipients, candidates)
            self._columns = columns
        return columns

    def ranking_columns(self) -> tuple[np.ndarray, ...]:
        """Flat ``(recipients, candidates, witnesses, created_at)`` columns.

        What scoring needs, one entry per raw candidate: each group's
        shared witness count and creation time repeat across its
        recipients (two ``np.repeat`` calls, nothing per group).
        """
        groups = self.groups
        n = len(groups)
        sizes = np.fromiter((len(g) for g in groups), np.int64, n)
        columns = self.columns()
        return (
            columns.recipients,
            columns.candidates,
            np.repeat(
                np.fromiter((g.num_witnesses for g in groups), np.int64, n), sizes
            ),
            np.repeat(
                np.fromiter((g.created_at for g in groups), np.float64, n), sizes
            ),
        )

    def select(self, indices: np.ndarray) -> list[Recommendation]:
        """Box only the candidates at the given ascending flat *indices*.

        This is the funnel's terminal materialization: survivors (the
        millions) become :class:`Recommendation` objects; everything the
        funnel dropped (the billions) never leaves the columns.
        """
        if not len(indices):
            return []
        offsets = self.offsets()
        group_ids = np.searchsorted(offsets, indices, side="right") - 1
        groups = self.groups
        out: list[Recommendation] = []
        offsets_list = offsets.tolist()
        for flat_index, group_index in zip(indices.tolist(), group_ids.tolist()):
            group = groups[group_index]
            out.append(group.recommendation_at(flat_index - offsets_list[group_index]))
        return out


class FlatRecommendations(ColumnarRecommendations):
    """Candidates as flat aligned columns, one row each, in any order.

    The ranked flush's output shape: (recipient, -score, candidate) order
    interleaves the detection groups, so instead of re-grouping, every row
    carries its own ``recipients`` / ``candidates`` / ``created_at`` /
    ``witnesses`` entry plus ``source_index``, the position in ``sources``
    of the object holding its ``motif`` / ``action`` / ``via`` (the
    emitting :class:`RecommendationGroup`, or the boxed
    :class:`Recommendation` itself).  That metadata is read only for rows
    that are finally boxed — iteration, or :meth:`select` on the funnel's
    delivered survivors.  Treated as immutable; :meth:`take` shares
    ``sources`` by reference.

    >>> group = RecommendationGroup([7, 8], candidate=9, created_at=1.0, via=(5,))
    >>> flat = FlatRecommendations(
    ...     np.array([8, 7]), np.array([9, 9]), np.array([1.0, 1.0]),
    ...     np.array([1, 1]), np.array([0, 0]), [group],
    ... )
    >>> [(rec.recipient, rec.via) for rec in flat]
    [(8, (5,)), (7, (5,))]
    >>> flat.take(np.array([1])).select(np.array([0]))[0].recipient
    7
    """

    __slots__ = (
        "recipients",
        "candidates",
        "created_at",
        "witnesses",
        "source_index",
        "sources",
    )

    def __init__(
        self,
        recipients: np.ndarray,
        candidates: np.ndarray,
        created_at: np.ndarray,
        witnesses: np.ndarray,
        source_index: np.ndarray,
        sources: Sequence[RecommendationGroup | Recommendation],
    ) -> None:
        self.recipients = recipients
        self.candidates = candidates
        self.created_at = created_at
        self.witnesses = witnesses
        self.source_index = source_index
        self.sources = sources

    @classmethod
    def from_boxed(
        cls, recommendations: Iterable[Recommendation]
    ) -> "FlatRecommendations":
        """Column a boxed candidate sequence; each row is its own source."""
        recs = list(recommendations)
        n = len(recs)
        return cls(
            np.fromiter((r.recipient for r in recs), np.int64, n),
            np.fromiter((r.candidate for r in recs), np.int64, n),
            np.fromiter((r.created_at for r in recs), np.float64, n),
            np.fromiter((len(r.via) for r in recs), np.int64, n),
            np.arange(n, dtype=np.int64),
            recs,
        )

    def __len__(self) -> int:
        return len(self.recipients)

    def __iter__(self) -> Iterator[Recommendation]:
        return iter(self.select(slice(None)))

    def __getitem__(self, i: int) -> Recommendation:
        return self.select(np.array([range(len(self))[i]]))[0]

    def columns(self) -> CandidateColumns:
        """The (recipients, candidates) funnel view."""
        return CandidateColumns(self.recipients, self.candidates)

    def ranking_columns(self) -> tuple[np.ndarray, ...]:
        """``(recipients, candidates, witnesses, created_at)``, as held."""
        return (self.recipients, self.candidates, self.witnesses, self.created_at)

    def take(self, indices: np.ndarray) -> "FlatRecommendations":
        """The rows at *indices*, in that order (one shard's slice)."""
        return FlatRecommendations(
            self.recipients[indices],
            self.candidates[indices],
            self.created_at[indices],
            self.witnesses[indices],
            self.source_index[indices],
            self.sources,
        )

    def select(self, indices: np.ndarray | slice) -> list[Recommendation]:
        """Box the rows at *indices* — the only place metadata is read."""
        sources = self.sources
        out: list[Recommendation] = []
        for recipient, candidate, created_at, source in zip(
            self.recipients[indices].tolist(),
            self.candidates[indices].tolist(),
            self.created_at[indices].tolist(),
            self.source_index[indices].tolist(),
        ):
            meta = sources[source]
            out.append(
                Recommendation(
                    recipient, candidate, created_at,
                    meta.motif, meta.action, meta.via,
                )
            )
        return out


#: Shared immutable "no candidates" batch; never mutated (concat_all
#: aliases around it, and consumers treat emitted batches as read-only).
EMPTY_RECOMMENDATION_BATCH = RecommendationBatch()

_EMPTY_INT64 = np.empty(0, dtype=np.int64)
