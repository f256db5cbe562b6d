"""The paper's **D** structure: recent dynamic edges keyed by target.

D answers: *given C, which B's created an edge to C recently, and when?*
It absorbs the full live edge stream (every partition needs all of it; the
partitions of one process share one copy, see :meth:`DynamicEdgeIndex.enter`)
and is pruned aggressively — the paper notes memory pressure "can be
alleviated by pruning the D data structure to only retain the most recent
edges (since we desire timely results)".

Two pruning policies compose:

* a **time window** (``retention`` seconds) — edges older than the window
  can never satisfy the freshness constraint ``tau <= retention``, so they
  are dropped lazily on access and eagerly by :meth:`prune_expired`;
* a **per-target cap** (``max_edges_per_target``) — a viral C attracting
  millions of followers in a burst would otherwise grow its entry without
  bound; only the newest edges are kept.

Timestamps may arrive slightly out of order (real message queues reorder);
entries are kept in arrival order and freshness is always evaluated against
the stored timestamps, so modest reordering only costs a little laziness in
pruning, never correctness.

Storage follows the observed entry count, and D alone picks it: a cold
target holds a deque of boxed ``(t, b, action)`` tuples; a target reaching
:data:`DEFAULT_PROMOTE_THRESHOLD` stored edges switches to a
:class:`_HotRing` — a circular **columnar** buffer (float64 timestamps,
int64 sources, uint16 interned action codes) so freshness scans, dedup, and
window pruning vectorize for exactly the targets where the per-tuple Python
scan hurts.  Rings demote back to deques when pruning shrinks them below
half the threshold.  Promotion and demotion are pure representation
changes — queries, eviction order, and counters are bit-identical to an
index that never promotes (``tests/test_backend_equivalence.py`` enforces
this on random streams), so no option selects them.  Both layouts take one
write rule (:meth:`DynamicEdgeIndex.insert_batch`; :meth:`~DynamicEdgeIndex.insert`
is a batch of one) and one read (:meth:`DynamicEdgeIndex.fresh_sources_multi`).

An engine reads D once per batch, *before* inserting it
(:meth:`DynamicEdgeIndex.fresh_batch`): each event is answered from its
target's stored entry plus the batch's earlier edges to that target,
trimmed exactly as the per-event insert would trim them, so the answer is
the one the per-event loop reads right after its own insert.  A ring-backed
target repeating in the batch with rising timestamps and distinct sources
is answered as one sliding window — every event's fresh set a slice of one
sequence — and any other target per event
(``tests/test_batch_scan.py`` holds both to the per-event loop).  Then
:meth:`DynamicEdgeIndex.insert_batch` inserts the batch once.

Contracts the index assumes (violations raise ``ValueError`` where they can
be detected):

* at most 65,535 distinct action tags per index (rings store a ``uint16``
  code per edge);
* ``now`` / timestamps are non-decreasing up to modest reordering (see
  above); ``tau`` never exceeds ``retention``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.graph.ids import UserId
from repro.util.validation import require_positive

#: Stored-entry count at which a target is promoted from the deque
#: representation to a columnar ring — D's own constant, copied onto each
#: index and set by nothing in the library.  Below it, the plain Python
#: scan over a handful of tuples beats numpy's fixed dispatch cost.  The
#: viral-scan row (``benchmarks/bench_ingest_throughput.py``) puts the
#: query-cost crossover at ~64 stored entries (deque 13.4 us vs ring 13.4 us
#: per query; at 160 entries 35.0 vs 14.8 us), re-measured unchanged under
#: the batch scan (2-core box).  The constant sits well above it: promotion
#: is reserved for genuinely viral targets, where the vectorized scan (and
#: the batch scan's sliding window, which only rings take) wins by over 2x.
DEFAULT_PROMOTE_THRESHOLD = 160


@dataclass(frozen=True, slots=True)
class FreshEdge:
    """One recent ``B -> C`` edge as returned by freshness queries.

    ``action`` is an opaque tag (the library passes
    :class:`~repro.core.events.ActionType` values) used by action-filtered
    motifs; ``None`` for untagged inserts.
    """

    source: UserId
    timestamp: float
    action: object | None = None


#: Shared empty result for :meth:`DynamicEdgeIndex.fresh_sources_multi`
#: queries with no fresh sources; never mutated.
_NO_FRESH_SOURCES: list = []


class FreshColumns:
    """A columnar raw freshness result (ring-backed hot targets only).

    ``fresh_sources_multi(raw=True)`` returns one of these instead of a
    list of ``(timestamp, source, action)`` tuples when the queried target
    lives in a ring: the deduped, time-ordered result stays as numpy
    columns so the batched detector can consume sources with one
    ``tolist`` instead of boxing a tuple per edge.  Iteration and equality
    decode to exactly the tuples the list representation would return, so
    the two raw shapes are interchangeable everywhere order matters.
    """

    __slots__ = ("timestamps", "sources", "action_codes", "_table", "_sources_list")

    def __init__(
        self,
        timestamps: np.ndarray,
        sources: np.ndarray,
        action_codes: np.ndarray,
        table: list,
    ) -> None:
        self.timestamps = timestamps
        self.sources = sources
        self.action_codes = action_codes
        self._table = table
        self._sources_list: list[int] | None = None

    def __len__(self) -> int:
        return len(self.timestamps)

    def sources_list(self) -> list[int]:
        """The source column as a plain list (cached one-shot ``tolist``)."""
        sources = self._sources_list
        if sources is None:
            sources = self._sources_list = self.sources.tolist()
        return sources

    def __iter__(self):
        table = self._table
        return iter(
            [
                (t, b, table[code])
                for t, b, code in zip(
                    self.timestamps.tolist(),
                    self.sources_list(),
                    self.action_codes.tolist(),
                )
            ]
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FreshColumns, list)):
            return list(self) == list(other)
        return NotImplemented


def _fresh_columns(
    ts: np.ndarray,
    src: np.ndarray,
    act: np.ndarray,
    now: float,
    cutoff: float,
    code: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised freshness query over one target's entries (columns in
    arrival order).

    Returns ``(timestamps, sources, codes)`` of the fresh edges after
    per-source dedup (latest timestamp wins; arrival order breaks ties
    toward the earliest, matching the deque scan's strict ``timestamp >
    previous`` replacement), ordered by ascending ``(timestamp, source)``.
    The returned arrays are always *owned* (never views of the input), so
    callers may hold them across later inserts — the batched detector
    keeps the source column as a recommendation group's lazily-decoded
    witness list.
    """
    if code is None and len(ts) and ts.min() >= cutoff and ts.max() <= now:
        # Whole window fresh (the common case mid-burst: retention is
        # wider than tau only pathologically, and `now` trails the newest
        # edge) — skip the mask and its three fancy-index copies; the
        # dedup below works on the raw views.
        pass
    else:
        mask = (ts >= cutoff) & (ts <= now)
        if code is not None:
            mask &= act == code
        ts = ts[mask]
        src = src[mask]
        act = act[mask]
    n = len(ts)
    if n <= 1:
        # The dedup path below always produces fresh arrays via fancy
        # indexing; match that ownership here (the no-mask fast path would
        # otherwise leak a view of the input).
        return ts.copy(), src.copy(), act.copy()
    # Latest edge per distinct source.  Sort by (source, timestamp,
    # arrival-desc) and keep each source group's last element: the max
    # timestamp, and among equal timestamps the *earliest* arrival (larger
    # -arrival sorts later).
    arrival = np.arange(n)
    order = np.lexsort((-arrival, ts, src))
    src_sorted = src[order]
    last = np.empty(n, dtype=bool)
    last[-1] = True
    np.not_equal(src_sorted[1:], src_sorted[:-1], out=last[:-1])
    keep = order[last]
    ts, src, act = ts[keep], src[keep], act[keep]
    final = np.lexsort((src, ts))
    return ts[final], src[final], act[final]


def _groups(targets: Sequence[UserId]):
    """``(target, event indexes)`` pairs of a batch's target column, in
    first-appearance order.  A batch with no repeated target (the cold
    firehose's usual batch) skips the grouping pass: each group is one
    event, as a 1-tuple."""
    if len(set(targets)) == len(targets):
        return zip(targets, zip(range(len(targets))))
    groups: dict[UserId, list[int]] = {}
    for i, c in enumerate(targets):
        group = groups.get(c)
        if group is None:
            groups[c] = [i]
        else:
            group.append(i)
    return groups.items()


def _fresh_tuples(entries, now: float, cutoff: float, action: object | None) -> list:
    """The deque twin of :func:`_fresh_columns` over stored ``(timestamp,
    source, action)`` tuples in arrival order: the latest fresh tuple per
    source, sorted by ``(timestamp, source)``."""
    latest: dict[UserId, tuple[float, object | None]] = {}
    for timestamp, b, edge_action in entries:
        if timestamp < cutoff or timestamp > now:
            continue
        if action is not None and edge_action is not action:
            continue
        previous = latest.get(b)
        if previous is None or timestamp > previous[0]:
            latest[b] = (timestamp, edge_action)
    # Tuple order (t, b, action) sorts by (timestamp, source): b is unique
    # per entry, so the action field never compares.
    flat = [(t, b, edge_action) for b, (t, edge_action) in latest.items()]
    flat.sort()
    return flat


class _HotRing:
    """Circular columnar buffer holding one hot target's recent edges.

    Entries live in three parallel numpy arrays (timestamps, sources,
    interned action codes) in **arrival order**, exactly mirroring a deque:
    appends go to the logical tail, both pruning mechanisms pop from the
    logical head.  ``_table`` is the owning index's shared code -> action
    object list, so iteration and equality decode to the same tuples the
    deque representation stores.

    The buffer grows (doubling) when full, so it can temporarily hold more
    than the per-target cap — cap eviction stays a policy of the owning
    index, keeping the deque and ring eviction logic line-for-line parallel.
    """

    __slots__ = ("ts", "src", "act", "start", "count", "_table")

    def __init__(self, capacity: int, table: list) -> None:
        capacity = max(capacity, 8)
        self.ts = np.empty(capacity, dtype=np.float64)
        self.src = np.empty(capacity, dtype=np.int64)
        self.act = np.empty(capacity, dtype=np.uint16)
        self.start = 0
        self.count = 0
        self._table = table

    # -- mutation ------------------------------------------------------

    def append(self, timestamp: float, source: int, code: int) -> None:
        """Append one edge at the logical tail (grows when full)."""
        capacity = len(self.ts)
        if self.count == capacity:
            self._grow(capacity * 2)
            capacity = capacity * 2
        position = self.start + self.count
        if position >= capacity:
            position -= capacity
        self.ts[position] = timestamp
        self.src[position] = source
        self.act[position] = code
        self.count += 1

    def popleft(self) -> None:
        """Drop the oldest entry."""
        self.start += 1
        if self.start == len(self.ts):
            self.start = 0
        self.count -= 1

    def extend(self, ts: np.ndarray, src: np.ndarray, act: np.ndarray) -> None:
        """Bulk-append a column triple at the logical tail.

        Equivalent to ``append`` per element in order, but the whole group
        lands with at most two slice assignments (one when the write does
        not wrap), which is what makes adversarial floods on an
        already-hot target cheap (see ``DynamicEdgeIndex.insert_batch``).
        """
        m = len(ts)
        capacity = len(self.ts)
        needed = self.count + m
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            self._grow(capacity)
        start = self.start + self.count
        if start >= capacity:
            start -= capacity
        stop = start + m
        if stop <= capacity:
            self.ts[start:stop] = ts
            self.src[start:stop] = src
            self.act[start:stop] = act
        else:
            split = capacity - start
            self.ts[start:] = ts[:split]
            self.src[start:] = src[:split]
            self.act[start:] = act[:split]
            self.ts[: stop - capacity] = ts[split:]
            self.src[: stop - capacity] = src[split:]
            self.act[: stop - capacity] = act[split:]
        self.count += m

    def drop_stale(self, cutoff: float) -> int:
        """Pop from the head while it is older than *cutoff*; count popped.

        One scalar head check keeps the no-op case (the overwhelmingly
        common one on in-order streams) at a single comparison; only when
        something is actually stale does the vectorized leading-run count
        pay for itself.
        """
        if not self.count or self.ts[self.start] >= cutoff:
            return 0
        ts = self._ordered(self.ts)
        alive = ts >= cutoff
        first_alive = int(np.argmax(alive))
        removed = first_alive if alive[first_alive] else self.count
        self.start = (self.start + removed) % len(self.ts)
        self.count -= removed
        return removed

    def _grow(self, capacity: int) -> None:
        ts = np.empty(capacity, dtype=np.float64)
        src = np.empty(capacity, dtype=np.int64)
        act = np.empty(capacity, dtype=np.uint16)
        n = self.count
        ts[:n] = self._ordered(self.ts)
        src[:n] = self._ordered(self.src)
        act[:n] = self._ordered(self.act)
        self.ts, self.src, self.act = ts, src, act
        self.start = 0

    # -- views ---------------------------------------------------------

    def _ordered(self, column: np.ndarray) -> np.ndarray:
        """The live entries of *column* in arrival order (view when
        unwrapped, copy when the ring wraps around)."""
        stop = self.start + self.count
        capacity = len(column)
        if stop <= capacity:
            return column[self.start : stop]
        return np.concatenate((column[self.start :], column[: stop - capacity]))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live ``(timestamps, sources, codes)`` in arrival order."""
        return self._ordered(self.ts), self._ordered(self.src), self._ordered(self.act)

    # -- deque-compatible protocol -------------------------------------

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        """Yield ``(timestamp, source, action)`` tuples in arrival order.

        This is the same tuple shape a deque entry stores, so checkpointing
        code can iterate either representation blindly.
        """
        table = self._table
        ts = self._ordered(self.ts).tolist()
        src = self._ordered(self.src).tolist()
        act = self._ordered(self.act).tolist()
        return iter(
            [(t, b, table[code]) for t, b, code in zip(ts, src, act)]
        )

    def __eq__(self, other: object) -> bool:
        """Content equality against any entry sequence (ring or deque)."""
        if isinstance(other, (_HotRing, deque)):
            return list(self) == list(other)
        return NotImplemented

    def nbytes(self) -> int:
        """Backing-array footprint in bytes."""
        return int(self.ts.nbytes + self.src.nbytes + self.act.nbytes)


class DynamicEdgeIndex:
    """Map ``C -> recent (B, timestamp) entries``, pruned by window and cap."""

    def __init__(
        self,
        retention: float,
        max_edges_per_target: int | None = None,
    ) -> None:
        """Create an empty index.

        Args:
            retention: seconds an edge stays queryable.  Must cover the
                largest freshness window ``tau`` any detector will ask for.
            max_edges_per_target: optional hard cap per C; the oldest
                entries are evicted first.
        """
        require_positive(retention, "retention")
        if max_edges_per_target is not None:
            require_positive(max_edges_per_target, "max_edges_per_target")
        self.retention = retention
        self.max_edges_per_target = max_edges_per_target
        #: The ring promotion point (rings demote below half of it).  Tests
        #: that must force or forbid promotion set it before the first
        #: insert; nothing else does.
        self.promote_threshold = DEFAULT_PROMOTE_THRESHOLD
        self._edges: dict[UserId, deque | _HotRing] = {}
        self._num_edges = 0
        self._inserted_total = 0
        self._evicted_total = 0
        #: Interned action tags for the columnar rings: code -> object, and
        #: the id()-keyed reverse map.  Identity interning matches the
        #: ``is``-based action filter exactly; interned objects are kept
        #: alive by the table, so ids cannot be recycled.
        self._action_table: list = [None]
        self._action_codes: dict[int, int] = {}
        #: Stream position (see :meth:`enter`): the batch or event being
        #: ingested, the ids of the engines that entered it (ids, so D and
        #: its engines form no reference cycle), and its scans kept by key.
        self._position: object = None
        self._consumers: set[int] = set()
        self._scans: dict[tuple, list] = {}
        #: Lifetime counts of ring-backed targets repeating within a
        #: pending scan: answered as one sliding window, or per event.
        self.sliding_targets = 0
        self.fallback_targets = 0

    # ------------------------------------------------------------------
    # Stream position (one D shared by co-hosted engines)
    # ------------------------------------------------------------------

    def enter(self, position: object, consumer: object) -> bool:
        """Put *consumer* (an engine) at *position*: the batch or event it
        is about to ingest.  Returns whether *consumer* opened the
        position, in which case it inserts the position's edges once it
        has read them (:meth:`fresh_batch`); an engine that joins inserts
        nothing.

        Engines in one address space share one D and each ingests the
        whole stream, so every batch object arrives once per engine.  The
        first engine at a batch opens a new position with nothing kept;
        later engines join it and read its kept scans.  An engine entering
        the position it already consumed has moved on in the stream, so a
        D with one reader opens a new position on every call.
        """
        consumer_id = id(consumer)
        if position is self._position and consumer_id not in self._consumers:
            self._consumers.add(consumer_id)
            return False
        self._position = position
        self._consumers = {consumer_id}
        self._scans = {}
        return True

    def leave(self) -> None:
        """Drop the current position, so the index holds nothing of the
        batch once every engine is done with it (a worker's batch is a
        view of its ring slot); the next batch opens a new position."""
        self._position = None
        self._scans = {}

    def fresh_batch(
        self,
        batch,
        now: float | None,
        tau: float,
        min_count: int,
        action: object | None = None,
    ) -> list:
        """Raw freshness of each event of *batch*, the current position,
        read at ``max(created_at, now)`` as the per-event loop would right
        after inserting it: :meth:`fresh_sources_multi` with
        ``pending=batch``, ``action``, ``min_count`` and ``raw=True``.

        The opening engine reads the batch before inserting it; each
        ``(now, tau, min_count, action)`` is scanned once and kept for the
        position, so every other program with that key, in this engine or
        a joining one, reads the kept result (a batch that is not the
        current position is scanned and not kept).  Results are owned
        lists and arrays, so holding them across the insert is safe.
        """
        key = (now, tau, min_count, action)
        current = batch is self._position
        fresh = self._scans.get(key) if current else None
        if fresh is None:
            if current and len(self._consumers) > 1:
                raise RuntimeError(
                    "a joining engine asked for a scan the opening engine "
                    "did not make; engines sharing one D must run programs "
                    "of the same (tau, k, action) at the same now"
                )
            timestamps, _actors, targets, _actions = batch.columns()
            if now is not None:
                # One C-speed clamp against the processing clock.
                timestamps = np.maximum(batch.timestamps, now).tolist()
            fresh = self.fresh_sources_multi(
                targets, timestamps, tau, action, min_count, raw=True, pending=batch
            )
            if current:
                self._scans[key] = fresh
        return fresh

    # ------------------------------------------------------------------
    # Action interning (rings)
    # ------------------------------------------------------------------

    def _encode_action(self, action: object | None) -> int:
        if action is None:
            return 0
        code = self._action_codes.get(id(action))
        if code is None:
            code = len(self._action_table)
            if code > np.iinfo(np.uint16).max:
                raise ValueError(
                    "too many distinct action tags: an index holds at most "
                    "65535 (rings store a uint16 code per edge)"
                )
            self._action_table.append(action)
            self._action_codes[id(action)] = code
        return code

    def _filter_code(self, action: object | None) -> int | None:
        """The interned code of *action* for filtering, or ``None`` for
        "accept all".  An action never interned cannot match any ring
        entry; the sentinel -1 makes the vectorized compare reject all."""
        if action is None:
            return None
        return self._action_codes.get(id(action), -1)

    # ------------------------------------------------------------------
    # Promotion / demotion
    # ------------------------------------------------------------------

    def _promote(self, c: UserId, entry: deque) -> _HotRing:
        """Switch a hot target's deque to the columnar ring representation."""
        cap = self.max_edges_per_target
        if cap is not None:
            # cap + 1 slots: an append at the cap fits without growing, and
            # the subsequent cap eviction restores the invariant.
            capacity = max(cap + 1, len(entry))
        else:
            capacity = max(2 * self.promote_threshold, len(entry))
        ring = _HotRing(capacity, self._action_table)
        encode = self._encode_action
        for timestamp, b, action in entry:
            ring.append(timestamp, b, encode(action))
        self._edges[c] = ring
        return ring

    def _demote(self, c: UserId, ring: _HotRing) -> deque:
        """Switch a cooled-off ring back to the deque representation."""
        entry = deque(ring)
        self._edges[c] = entry
        return entry

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(
        self,
        b: UserId,
        c: UserId,
        timestamp: float,
        action: object | None = None,
    ) -> None:
        """Record a live edge ``b -> c`` created at *timestamp*.

        ``action`` optionally tags the edge with what kind of user action
        created it, so action-filtered motifs (e.g. co-retweet) can query
        only their own edge type.
        """
        self._insert((timestamp,), (b,), (c,), (action,), None)

    def insert_batch(self, batch) -> None:
        """Insert every edge of an :class:`~repro.core.batch.EventBatch`,
        exactly as :meth:`insert` once per event in batch order would."""
        self._insert(*batch.columns(), batch)

    def _insert(self, timestamps, actors, targets, actions, batch) -> None:
        """The one write rule: per event, in batch order, append →
        time-prune → cap → promote.

        The only bulk write is a flood: a ring-backed target repeating in
        *batch*, landed first (targets never interact) with slice
        assignments when that is provably the per-event loop — the group
        cannot overflow the cap, and its timestamp skew stays within the
        retention window, so no cutoff reaches a group edge and one prune
        at the newest edge's cutoff pops the same stored head (both
        mechanisms pop only from the old end).
        """
        edges = self._edges
        retention = self.retention
        cap = self.max_edges_per_target
        promote_at = self.promote_threshold
        evicted = 0
        flooded = ()
        if len(targets) > 1 and len(set(targets)) < len(targets):
            flooded = set()
            for c, idxs in _groups(targets):
                ring = edges.get(c)
                if len(idxs) == 1 or type(ring) is not _HotRing:
                    continue
                m = len(idxs)
                group_ts = [timestamps[i] for i in idxs]
                t_max = max(group_ts)
                if t_max - min(group_ts) <= retention and (
                    cap is None or ring.count + m <= cap
                ):
                    encode = self._encode_action
                    codes = np.fromiter((encode(actions[i]) for i in idxs), np.uint16, m)
                    ring.extend(batch.timestamps[idxs], batch.actors[idxs], codes)
                    evicted += ring.drop_stale(t_max - retention)
                    flooded.add(c)
        # One block per layout, kept inline: a per-event helper would cost
        # a call per event on the hottest loop in the repo.
        for i, c in enumerate(targets):
            if c in flooded:
                continue
            entry = edges.get(c)
            if entry is None:
                entry = edges[c] = deque()
            timestamp = timestamps[i]
            if type(entry) is deque:
                entry.append((timestamp, actors[i], actions[i]))
                cutoff = timestamp - retention
                # The just-appended edge survives its own cutoff, so the
                # deque never empties here.
                while entry[0][0] < cutoff:
                    entry.popleft()
                    evicted += 1
                # At most one pop per append while the cap is unchanged.
                while cap is not None and len(entry) > cap:
                    entry.popleft()
                    evicted += 1
                if len(entry) >= promote_at:
                    self._promote(c, entry)
            else:
                entry.append(timestamp, actors[i], self._encode_action(actions[i]))
                evicted += entry.drop_stale(timestamp - retention)
                while cap is not None and entry.count > cap:
                    entry.popleft()
                    evicted += 1
        inserted = len(timestamps)
        self._num_edges += inserted - evicted
        self._inserted_total += inserted
        self._evicted_total += evicted

    def prune_expired(self, now: float) -> int:
        """Eagerly drop all entries older than ``now - retention``.

        Returns the number of edges removed.  The ingest pipeline calls this
        periodically to bound memory between bursts.  This sweep is also
        where cooled-off rings demote back to deques.
        """
        cutoff = now - self.retention
        removed = 0
        dead_targets: list[UserId] = []
        demote_below = self.promote_threshold // 2
        demotions: list[UserId] = []
        for c, entry in self._edges.items():
            if type(entry) is deque:
                while entry and entry[0][0] < cutoff:
                    entry.popleft()
                    removed += 1
            else:
                removed += entry.drop_stale(cutoff)
                if 0 < entry.count < demote_below:
                    demotions.append(c)
            if not entry:
                dead_targets.append(c)
        self._num_edges -= removed
        self._evicted_total += removed
        for c in dead_targets:
            del self._edges[c]
        for c in demotions:
            self._demote(c, self._edges[c])
        return removed

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def fresh_sources(
        self,
        c: UserId,
        now: float,
        tau: float,
        action: object | None = None,
    ) -> list[FreshEdge]:
        """All B's with an edge to *c* within the last *tau* seconds.

        If the same B created several edges to *c* inside the window (an
        unfollow/refollow churn), only the most recent survives, so a single
        flapping account can never impersonate ``k`` distinct followers.
        Results are ordered by ascending timestamp.

        Args:
            c: the query target.
            now: the right edge of the freshness window.
            tau: window length; must not exceed the index's retention.
            action: when given, only edges inserted with this action tag
                count (action-filtered motifs); ``None`` accepts all.
        """
        # ``or []``: never hand out the shared empty result.
        return self.fresh_sources_multi((c,), (now,), tau, action)[0] or []

    def fresh_sources_multi(
        self,
        targets: Sequence[UserId],
        nows: Sequence[float],
        tau: float,
        action: object | None = None,
        min_count: int = 0,
        raw: bool = False,
        pending=None,
    ) -> list[list[FreshEdge]] | list[list[tuple[float, UserId, object | None]]]:
        """Batched :meth:`fresh_sources`: one call for many ``(c, now)`` pairs.

        *targets* and *nows* are positionally-aligned parallel columns (one
        query per index).  Returns one fresh-source list per query, aligned
        the same way, with identical per-query semantics (latest edge per
        distinct B, ascending timestamp order, optional action filter).
        Validation and attribute lookups are paid once per batch instead of
        once per event, and queries with no fresh sources share one
        immutable empty result list (callers must not mutate results).

        ``min_count`` is a threshold hint: targets whose stored entry holds
        fewer than ``min_count`` edges are reported as having no fresh
        sources without scanning.  Since the fresh-source count can never
        exceed the stored-entry count, callers that discard results below
        ``min_count`` (the detector's ``k``) observe identical decisions —
        this is what lets the firehose's cold targets skip all per-event
        object construction.

        ``raw=True`` returns each fresh edge as its stored
        ``(timestamp, source, action)`` tuple instead of boxing a
        :class:`FreshEdge` — the allocation-free representation the batched
        detector consumes (same edges, same order).  Ring-backed hot
        targets go one step further and return a :class:`FreshColumns`
        (same edges as numpy columns; iterates/compares as the same
        tuples).

        *pending* is an :class:`~repro.core.batch.EventBatch` not yet in D
        whose events are the queries (*targets* is its target column):
        query *i* reads D as the per-event loop would right after
        inserting ``pending[:i + 1]`` (:meth:`_fresh_pending`; results are
        raw).  Nothing is inserted.
        """
        if not 0 < tau <= self.retention:
            require_positive(tau, "tau")
            raise ValueError(
                f"tau={tau} exceeds retention={self.retention}; "
                "fresh edges may already have been pruned"
            )
        if pending is not None:
            return self._fresh_pending(pending, targets, nows, tau, action, min_count)
        edges = self._edges
        empty = _NO_FRESH_SOURCES
        table = self._action_table
        results: list[list] = []
        append = results.append
        for c, now in zip(targets, nows):
            entry = edges.get(c)
            if entry is None or len(entry) < min_count or not entry:
                append(empty)
                continue
            cutoff = now - tau
            if type(entry) is deque:
                if len(entry) == 1:
                    # The common cold target (every per-event read of a
                    # first edge): nothing to dedup or sort.
                    t, b, edge_action = edge = entry[0]
                    if cutoff <= t <= now and (action is None or edge_action is action):
                        append([edge] if raw else [FreshEdge(b, t, edge_action)])
                    else:
                        append(empty)
                    continue
                fresh = _fresh_tuples(entry, now, cutoff, action)
                if not fresh:
                    append(empty)
                elif raw:
                    append(fresh)
                else:
                    append([FreshEdge(b, t, edge_action) for t, b, edge_action in fresh])
                continue
            # Columnar hot target: one vectorized select + dedup + sort.
            ts, src, act = _fresh_columns(
                *entry.columns(), now, cutoff, self._filter_code(action)
            )
            if not len(ts):
                append(empty)
            elif raw:
                # Stay columnar: boxing a tuple per edge here would eat the
                # vectorized scan's entire win on viral targets.
                append(FreshColumns(ts, src, act, table))
            else:
                append(
                    [
                        FreshEdge(source=b, timestamp=t, action=table[code])
                        for t, b, code in zip(ts.tolist(), src.tolist(), act.tolist())
                    ]
                )
        return results

    def _fresh_pending(self, pending, targets, nows, tau, action, min_count) -> list:
        """Raw freshness of *pending*'s events, each read right after its
        own insert, without inserting anything.

        Each target's events see its stored entry followed by the batch's
        edges to it, trimmed by the per-event loop's append → time-prune →
        cap sequence.  A ring-backed target repeating in
        the batch whose stored and pending edges have strictly increasing
        timestamps and distinct sources needs no per-event scan: each
        window is then its own fresh set, and each event's fresh set is a
        contiguous slice of that one sequence, starting at the later of
        the prune + cap head and the ``now - tau`` cutoff — one
        ``searchsorted`` per bound for the whole group
        (:attr:`sliding_targets`).  Every other target is scanned per
        event over its window (:attr:`fallback_targets` counts the
        ring-backed repeating ones), exactly as the per-event loop would
        scan D.
        """
        timestamps, actors, _targets, actions = pending.columns()
        results = [_NO_FRESH_SOURCES] * len(targets)
        edges = self._edges
        retention = self.retention
        cap = self.max_edges_per_target
        for c, idxs in _groups(targets):
            entry = edges.get(c)
            stored = len(entry) if entry is not None else 0
            if stored + len(idxs) < min_count:
                continue  # no window reaches min_count
            if type(entry) is _HotRing:
                self._fresh_ring(entry, idxs, pending, nows, tau, action, min_count, results)
                continue
            # The per-event loop over a copy: append, time-prune, cap (the
            # window is window[head:]), then read.
            window = list(entry) if entry else []
            head = 0
            for i in idxs:
                timestamp = timestamps[i]
                window.append((timestamp, actors[i], actions[i]))
                cutoff = timestamp - retention
                while window[head][0] < cutoff:
                    head += 1
                if cap is not None and len(window) - head > cap:
                    head = len(window) - cap
                if len(window) - head >= min_count:
                    now = nows[i]
                    fresh = _fresh_tuples(
                        window[head:] if head else window, now, now - tau, action
                    )
                    if fresh:
                        results[i] = fresh
        return results

    def _fresh_ring(self, ring, idxs, pending, nows, tau, action, min_count, results) -> None:
        """:meth:`_fresh_pending` for one ring-backed target's events."""
        idxs = list(idxs)
        m = len(idxs)
        actions = pending.columns()[3]
        stored_ts, stored_src, stored_act = ring.columns()
        ts = np.concatenate((stored_ts, pending.timestamps[idxs]))
        src = np.concatenate((stored_src, pending.actors[idxs]))
        encode = self._encode_action
        codes = np.fromiter((encode(actions[i]) for i in idxs), np.uint16, m)
        act = np.concatenate((stored_act, codes))
        code = self._filter_code(action)
        table = self._action_table
        stored = ring.count
        if m > 1 and (ts[1:] > ts[:-1]).all() and len(np.unique(src)) == len(src):
            # The sliding window (see _fresh_pending): event j's window is
            # [head, end), its fresh set [max(head, now - tau cut), end).
            self.sliding_targets += 1
            ends = np.arange(stored + 1, stored + m + 1)
            heads = np.searchsorted(ts, ts[stored:] - self.retention)
            if self.max_edges_per_target is not None:
                heads = np.maximum(heads, ends - self.max_edges_per_target)
            event_nows = np.array([nows[i] for i in idxs])
            starts = np.maximum(heads, np.searchsorted(ts, event_nows - tau))
            stops = np.minimum(ends, np.searchsorted(ts, event_nows, side="right"))
            stops[ends - heads < min_count] = 0  # the min_count hint, per window
            if code is not None:
                keep = np.flatnonzero(act == code)
                ts, src, act = ts[keep], src[keep], act[keep]
                starts, stops = np.searchsorted(keep, starts), np.searchsorted(keep, stops)
            for i, a, b in zip(idxs, starts.tolist(), stops.tolist()):
                if b > a:
                    results[i] = FreshColumns(ts[a:b], src[a:b], act[a:b], table)
            return
        if m > 1:
            self.fallback_targets += 1
        # The per-event loop's append → time-prune → cap, as in
        # _fresh_pending: the window after event i is ts[head:end].
        head = 0
        cap = self.max_edges_per_target
        for end, i in enumerate(idxs, stored + 1):
            cutoff = ts[end - 1] - self.retention
            while ts[head] < cutoff:
                head += 1
            if cap is not None and end - head > cap:
                head = end - cap
            if end - head >= min_count:
                now = nows[i]
                fresh = _fresh_columns(
                    ts[head:end], src[head:end], act[head:end], now, now - tau, code
                )
                if len(fresh[0]):
                    results[i] = FreshColumns(*fresh, table)

    def targets(self) -> Iterable[UserId]:
        """All C's that currently have at least one stored edge."""
        return self._edges.keys()

    def entries(self, c: UserId) -> list[tuple[float, UserId, object | None]]:
        """The stored ``(timestamp, source, action)`` tuples of *c*, in
        arrival order — the representation-neutral view used by
        checkpointing."""
        entry = self._edges.get(c)
        if entry is None:
            return []
        return list(entry)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def num_targets(self) -> int:
        """Number of C's with stored edges."""
        return len(self._edges)

    @property
    def num_edges(self) -> int:
        """Total stored edges across all targets."""
        return self._num_edges

    @property
    def num_hot_targets(self) -> int:
        """Number of targets currently in the columnar ring representation."""
        return sum(1 for entry in self._edges.values() if type(entry) is not deque)

    @property
    def inserted_total(self) -> int:
        """Lifetime count of inserted edges (survivors + evicted)."""
        return self._inserted_total

    @property
    def evicted_total(self) -> int:
        """Lifetime count of edges pruned by window or cap."""
        return self._evicted_total

    def memory_bytes(self) -> int:
        """Approximate heap footprint of the stored entries.

        Each deque slot holds a ``(float, int)`` tuple: ~72 bytes of boxed
        payload plus a pointer — call it 88 bytes — and each target adds a
        dict slot plus container overhead (~180 bytes).  Ring-backed
        targets are charged their actual backing-array bytes instead.
        """
        total = len(self._edges) * 180
        for entry in self._edges.values():
            if type(entry) is deque:
                total += len(entry) * 88
            else:
                total += entry.nbytes() + 64
        return total
