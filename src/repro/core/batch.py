"""Columnar event batches: the amortized ingestion unit of the hot path.

The paper's production system sustains O(10^4) events/s by amortizing work
across the firehose.  A strictly per-event Python hot path pays interpreter
overhead (attribute lookups, method calls, object construction) on every
edge; :class:`EventBatch` removes that by carrying a micro-batch of edges as
parallel numpy columns — one array each for timestamp, actor (B), and
target (C), plus a compact action-code column — which flows end to end:

    stream generator -> queue consumer -> broker -> partition -> engine
                     -> DynamicEdgeIndex.insert_batch
                     -> DiamondDetector.process_batch

The storage layer continues the columnar layout at rest: S
(:class:`~repro.graph.static_index.StaticFollowerIndex`) serves follower lists
as zero-copy slices of one int64 arena, and D keeps hot
targets' recent edges in circular numpy columns — so a batch's arrays flow
into, through, and back out of the indexes without per-element boxing.

Batched processing is *semantics-preserving*: every layer's ``process_batch``
emits exactly the recommendations (and leaves exactly the index state) that
the per-event loop would.  The key tool for that is D's batch scan
(:meth:`~repro.graph.dynamic_index.DynamicEdgeIndex.fresh_batch`), which
answers each event from its own target's stored entry plus the batch's
earlier edges to that target — an event's freshness query depends on
nothing else — before the batch is inserted once.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.events import ActionType, EdgeEvent

#: Action codes for the compact columnar action column, by enum order.
ACTIONS: tuple[ActionType, ...] = tuple(ActionType)
ACTION_CODES: dict[ActionType, int] = {a: i for i, a in enumerate(ACTIONS)}
_DEFAULT_ACTION = ActionType.FOLLOW


class EventBatch:
    """A micro-batch of live ``B -> C`` edges in columnar (numpy) layout.

    Columns (all length ``n``, aligned by position):

    * ``timestamps`` — ``float64`` creation times (``EdgeEvent.created_at``);
    * ``actors`` — ``int64`` acting accounts (the B's);
    * ``targets`` — ``int64`` acted-upon accounts (the C's);
    * ``actions`` — ``uint8`` codes into :data:`ACTIONS`.

    Event order within the batch is stream order; all batched layers preserve
    it so results are positionally aligned with the input.
    """

    __slots__ = ("timestamps", "actors", "targets", "_action_codes", "_lists")

    def __init__(
        self,
        timestamps: Sequence[float] | np.ndarray,
        actors: Sequence[int] | np.ndarray,
        targets: Sequence[int] | np.ndarray,
        actions: Sequence[ActionType] | np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        """Wrap columns (copied into numpy arrays unless already arrays).

        Args:
            timestamps: per-event creation times.
            actors: per-event acting account ids.
            targets: per-event target account ids.
            actions: per-event actions — either a ``uint8`` code array or a
                sequence of :class:`ActionType`; ``None`` means all FOLLOW.
            validate: check column alignment and id non-negativity (the
                same invariant ``EdgeEvent`` enforces per event).
        """
        self.timestamps = np.asarray(timestamps, dtype=np.float64)
        self.actors = np.asarray(actors, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        if actions is None:
            codes = None
        elif isinstance(actions, np.ndarray):
            codes = actions.astype(np.uint8, copy=False)
        else:
            codes = np.fromiter(
                (ACTION_CODES[a] for a in actions),
                dtype=np.uint8,
                count=len(actions),
            )
        self._action_codes = codes
        self._lists: tuple[list, list, list, list] | None = None
        if validate:
            n = len(self.timestamps)
            if len(self.actors) != n or len(self.targets) != n:
                raise ValueError(
                    f"misaligned columns: {n} timestamps, "
                    f"{len(self.actors)} actors, {len(self.targets)} targets"
                )
            if codes is not None and len(codes) != n:
                raise ValueError(
                    f"misaligned columns: {n} timestamps, {len(codes)} actions"
                )
            if n and (self.actors.min() < 0 or self.targets.min() < 0):
                raise ValueError("user ids must be non-negative")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_events(cls, events: Sequence[EdgeEvent]) -> "EventBatch":
        """Build a batch from already-validated :class:`EdgeEvent` objects."""
        timestamps = [event.created_at for event in events]
        actors = [event.actor for event in events]
        targets = [event.target for event in events]
        actions = [event.action for event in events]
        batch = cls.__new__(cls)
        batch.timestamps = np.asarray(timestamps, dtype=np.float64)
        batch.actors = np.asarray(actors, dtype=np.int64)
        batch.targets = np.asarray(targets, dtype=np.int64)
        batch._action_codes = None
        # The row lists are exactly what columns() would rebuild — keep them.
        batch._lists = (timestamps, actors, targets, actions)
        return batch

    @classmethod
    def empty(cls) -> "EventBatch":
        """A zero-length batch."""
        return cls((), (), (), validate=False)

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def actions(self) -> np.ndarray:
        """The ``uint8`` action-code column (materialized on demand)."""
        codes = self._action_codes
        if codes is None:
            if self._lists is not None:
                actions = self._lists[3]
                codes = np.fromiter(
                    (ACTION_CODES[a] for a in actions),
                    dtype=np.uint8,
                    count=len(actions),
                )
            else:
                codes = np.zeros(len(self.timestamps), dtype=np.uint8)
            self._action_codes = codes
        return codes

    def columns(self) -> tuple[list[float], list[int], list[int], list[ActionType]]:
        """The batch as plain-Python row lists, decoded and cached.

        The deque entries of :class:`~repro.graph.dynamic_index
        .DynamicEdgeIndex` hold boxed Python values, so the ingestion inner
        loops run over lists (one C-speed ``tolist`` per column) rather than
        paying a numpy scalar box per element.
        """
        lists = self._lists
        if lists is None:
            timestamps = self.timestamps.tolist()
            actors = self.actors.tolist()
            targets = self.targets.tolist()
            codes = self._action_codes
            if codes is None or not codes.any():
                actions = [_DEFAULT_ACTION] * len(timestamps)
            else:
                actions = [ACTIONS[code] for code in codes.tolist()]
            lists = self._lists = (timestamps, actors, targets, actions)
        return lists

    def to_events(self) -> list[EdgeEvent]:
        """Reconstruct the batch as :class:`EdgeEvent` objects, in order."""
        timestamps, actors, targets, actions = self.columns()
        return [
            EdgeEvent(t, a, c, action)
            for t, a, c, action in zip(timestamps, actors, targets, actions)
        ]

    def slice(self, start: int, stop: int) -> "EventBatch":
        """A zero-copy view of rows ``[start:stop)``."""
        view = EventBatch.__new__(EventBatch)
        view.timestamps = self.timestamps[start:stop]
        view.actors = self.actors[start:stop]
        view.targets = self.targets[start:stop]
        codes = self._action_codes
        view._action_codes = None if codes is None else codes[start:stop]
        lists = self._lists
        view._lists = (
            None
            if lists is None
            else tuple(column[start:stop] for column in lists)
        )
        return view


def iter_event_batches(
    events: Iterable[EdgeEvent], batch_size: int
) -> Iterator[EventBatch]:
    """Chunk an event sequence into :class:`EventBatch` micro-batches."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    chunk: list[EdgeEvent] = []
    for event in events:
        chunk.append(event)
        if len(chunk) >= batch_size:
            yield EventBatch.from_events(chunk)
            chunk = []
    if chunk:
        yield EventBatch.from_events(chunk)
