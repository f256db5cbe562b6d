"""The pull-side read cache: per-user materialized top-k recommendations.

The push tier ends in notifications; the paper's product also answers
"show me my recommendations now" for any of millions of users.  This
module materializes exactly the state that query needs — each user's
current top-k recommendations by corroboration x freshness — as flat
numpy columns fed incrementally by the ranked delivery flush, so a point
lookup never touches the detection cluster.

Layout: an open-addressing user table (:class:`~repro.delivery.pairtable
.Int64KeyTable`, keyed by the bare user id through the same splitmix64
probe the funnel's pair tables use) whose value columns are fixed-``k``
slot matrices::

    keys       uint64[capacity]          user id
    candidate  int64 [capacity, k]       recommended account ids
    score      float64[capacity, k]      corroboration x freshness at
                                         the entry's last refresh
    created_at float64[capacity, k]      triggering-edge times
    witnesses  int64 [capacity, k]       corroboration count behind the
                                         score (read-time re-decay input)
    count      int64 [capacity]          live entries in this user's row
    stamp      uint64[capacity]          per-slot seqlock stamp

No per-user Python objects exist anywhere: a flush window's winners merge
in as one vectorized pass (gather existing rows, dedup (user, candidate)
with latest-offer-wins, re-rank per user, scatter the top-k back), and a
read copies at most ``k`` scalars out of the matrices.

**Concurrency contract** — single writer, lock-free readers, mirroring
the seqlock discipline of :mod:`repro.cluster.shm`:

* the writer brackets every *value* publish with a per-slot ``stamp``
  increment pair (odd while the row is mid-write, even once published);
* *structural* changes — inserting new users, growing/rebuilding the
  table, TTL compaction — are bracketed by the table-wide ``version``
  word instead (header word 0, odd while slots may move);
* a reader samples ``version``, probes, samples the slot ``stamp``,
  copies the row, then re-checks both stamps — any mismatch or odd value
  means a concurrent write and the read retries.  Steady-state updates
  to *other* users never perturb a reader (their slot stamps are
  untouched and ``version`` only moves on structural changes).

**One table, two backings, one reader.**  The default backing is heap
numpy (writer and readers share one address space: threads).  With a
shared-memory arena (:func:`create_serving_arena` +
:meth:`ServingCache.attach_writer`) the *same* table lives in
``multiprocessing.shared_memory`` segments: the delivery-shard worker
process is the single writer, merging flush output right where the
funnel runs, and the parent (or any process holding the picklable
:class:`ServingArenaSpec`) reads the very same bytes through
:class:`ServingCacheReader` — no reply decoding, no parent-side merge,
no copies on the read path.  Structural rebuilds publish a *new* data
segment (deterministic name ``<control>_g<generation>``) and bump the
generation word in the parent-owned control segment; readers re-attach
by name when the generation moves, and the version seqlock rejects any
read that straddled the handoff.  Either backing publishes the same two
things (:class:`_HeapBacking`), and every read — of one's own table or
of another process's — is the one loop in :class:`_TableView`.

``tests/test_serving_cache.py`` enforces the merge semantics (Hypothesis
equivalence against a dict-of-dicts fold of the same flush batches) and
the in-process torn-read contract; ``tests/test_serving_shm.py`` runs
the same torn-read discipline across a real process boundary while the
writer grows through generations.
"""

from __future__ import annotations

import time
from typing import Iterable, NamedTuple

import numpy as np

from repro.cluster.shm import ShmArena, unlink_segment
from repro.core.recommendation import (
    ColumnarRecommendations,
    FlatRecommendations,
    Recommendation,
)
from repro.delivery.pairtable import Int64KeyTable
from repro.delivery.scoring import decayed_scores
from repro.util.hashing import shard_ids, splitmix64
from repro.util.validation import require_positive

__all__ = [
    "ServedRecommendation",
    "ServingArenaSpec",
    "ServingCache",
    "ServingCacheConfig",
    "ServingCacheReader",
    "ShardedServingCache",
    "ShardedServingCacheReader",
    "create_serving_arena",
]

#: Consistent-read attempts before declaring the writer wedged.  Each
#: retry yields the GIL, so even a pathological writer storm resolves in
#: a handful of laps; hitting the cap means the writer died mid-write.
_READ_RETRIES = 1_000

# Control-segment word indices (the arena's eight u64 header words).
_CW_VERSION = 0  # table-wide structural seqlock (odd while slots move)
_CW_GENERATION = 1  # current data-segment generation (0 = none yet)
_CW_USERS = 2  # writer-published len(table)
_CW_UPDATES = 3  # writer-published update_columns count
_CW_ROWS = 4  # writer-published rows ingested
_CW_LAST_NOW = 5  # float64 bits: virtual time of the last merge
_CW_EVICTIONS = 6  # writer-published TTL evictions


class ServedRecommendation(NamedTuple):
    """One entry of a user's materialized top-k row."""

    candidate: int
    #: Corroboration x freshness score as of the entry's last refresh.
    #: Pass ``now=`` to ``get_recommendations`` to re-decay through the
    #: shared kernel at read time instead.
    score: float
    created_at: float


class ServingArenaSpec(NamedTuple):
    """Picklable handle for one serving shard's shared-memory arena.

    Carries the control-segment name plus the cache shape; data segments
    derive their names as ``<control_name>_g<generation>``, so the spec
    alone is enough to attach any future generation.
    """

    control_name: str
    k: int
    half_life: float = 1_800.0
    capacity: int = 1024
    ttl: float | None = None


class ServingCacheConfig(NamedTuple):
    """Shape of a serving cache a delivery pipeline builds per shard."""

    k: int = 2
    half_life: float = 1_800.0
    capacity: int = 1024
    ttl: float | None = None


def _column_specs(k: int) -> dict[str, tuple[np.dtype, int]]:
    """The user table's value-column schema (one source of truth: the
    writer's table and the reader's carve must agree byte for byte)."""
    return {
        "candidate": (np.int64, k),
        "score": (np.float64, k),
        "created_at": (np.float64, k),
        "witnesses": (np.int64, k),
        "count": (np.int64, 0),
        "stamp": (np.uint64, 0),
    }


def _data_fields(capacity: int, k: int) -> list:
    """Arena field list for one data generation of the given shape."""
    fields = [
        ("keys", np.uint64, (capacity,)),
        ("filled", np.bool_, (capacity,)),
    ]
    for name, (dtype, width) in _column_specs(k).items():
        shape = (capacity,) if width == 0 else (capacity, width)
        fields.append((name, dtype, shape))
    return fields


def _heap_arrays(capacity: int, k: int) -> dict[str, np.ndarray]:
    """Zero-filled process-private arrays for one generation."""
    return {
        name: np.zeros(shape, dtype=dtype)
        for name, dtype, shape in _data_fields(capacity, k)
    }


def _data_segment_name(control_name: str, generation: int) -> str:
    return f"{control_name}_g{generation}"


def _reap(retired: list[ShmArena]) -> list[ShmArena]:
    """Unmap superseded generations; returns those still pinned by views."""
    return [arena for arena in retired if not arena.try_close_mapping()]


def create_serving_arena(
    k: int = 2,
    half_life: float = 1_800.0,
    capacity: int = 1024,
    ttl: float | None = None,
) -> ServingArenaSpec:
    """Create one serving shard's *control* segment (parent side).

    The control segment holds only the eight header words (version,
    generation, writer gauges); the data segments are created by the
    writer process itself, one per table generation, under names derived
    from the control name.  The creator owns the control segment — it is
    reclaimed by ``sweep_segments`` with the rest of the transport's
    slabs — while data segments are reclaimed through
    :meth:`ServingCacheReader.reclaim_segments` (deterministic names, so
    even a ``kill -9``'d writer leaks nothing).
    """
    require_positive(k, "k")
    require_positive(half_life, "half_life")
    control = ShmArena.create([])
    control.release()  # ownership stays in the sweep list; attach by name
    return ServingArenaSpec(control.name, k, half_life, capacity, ttl)


class _HeapBacking:
    """Process-private table backing — and the shape every backing has.

    An :class:`Int64KeyTable` ``allocator`` that also *publishes* what it
    carved: :attr:`header` (the eight ``_CW_*`` words — version seqlock,
    generation, writer gauges) and :attr:`arrays`, the **one** dict
    holding every array of the current generation.  A (re)build replaces
    that dict with a single attribute store, so a reader that picked it
    up probes, stamps and copies one generation, never a mix.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.header = np.zeros(8, dtype=np.uint64)
        self.arrays: dict[str, np.ndarray] | None = None

    def _carve(self, capacity: int, generation: int) -> dict[str, np.ndarray]:
        return _heap_arrays(capacity, self.k)

    def allocate(self, capacity: int, specs: dict) -> tuple:
        """Int64KeyTable allocator: carve and publish the next generation."""
        generation = int(self.header[_CW_GENERATION]) + 1
        arrays = self._carve(capacity, generation)
        self.header[_CW_GENERATION] = generation
        self.arrays = arrays
        columns = dict(arrays)
        return columns.pop("keys"), columns.pop("filled"), columns

    def close(self) -> None:
        self.arrays = None


class _ArenaBacking(_HeapBacking):
    """Shared-memory backing: one data segment per table generation.

    Every (re)build carves keys/filled/columns out of a fresh data
    segment, stamps (capacity, k) into its header, publishes the new
    generation number in the control segment, and unlinks the previous
    generation.  Unlinking is safe mid-rebuild: POSIX removes only the
    name, so the writer's in-flight scatter (and any attached reader)
    keeps a valid mapping, and the table-wide version seqlock already
    forces readers to retry across the whole handoff.
    """

    def __init__(self, spec: ServingArenaSpec) -> None:
        self.spec = spec
        self.k = spec.k
        self.control = ShmArena.attach(spec.control_name, [])
        self.arrays = None
        self._data: ShmArena | None = None
        #: Unlinked old generations whose mappings can't unmap yet — the
        #: mid-rebuild table still views them.  Reaped on later allocates
        #: (by then the table's views moved on) and at :meth:`close`.
        self._retired: list[ShmArena] = []

    @property
    def header(self) -> np.ndarray:
        # The control segment's words; not held, a view would pin the mapping.
        return self.control.header

    def _carve(self, capacity: int, generation: int) -> dict[str, np.ndarray]:
        data = ShmArena.create(
            _data_fields(capacity, self.k),
            name=_data_segment_name(self.spec.control_name, generation),
        )
        data.header[:2] = capacity, self.k
        self._data = data
        return data.arrays

    def allocate(self, capacity: int, specs: dict) -> tuple:
        previous = self._data
        carved = super().allocate(capacity, specs)
        if previous is not None:
            unlink_segment(previous.name)  # name gone; mappings persist
            self._retired.append(previous)
        self._retired = _reap(self._retired)
        return carved

    def close(self) -> None:
        """Graceful writer shutdown: reclaim the live data segment.

        Readers that attached before this keep their mappings (that is
        what :meth:`ServingCacheReader.pin` is for); the parent's
        close-path sweep re-reclaims by name as the kill -9 backstop.
        """
        self.arrays = None
        self._retired = _reap(self._retired)
        if self._data is not None:
            self._data.close()  # owner: unlinks
            self._data = None
        self.control.close()


#: What a copy function returns when a slot stamp moved under it.
_TORN = object()


def _copy_row(arrays: dict[str, np.ndarray], user: int):
    """One user's row out of a published view, under its slot stamp.

    The same splitmix64 home slot and wraparound as ``Int64KeyTable.find``,
    but the mask comes from the very array being probed.  Returns the
    (candidates, scores, created_at, witnesses) lists, ``None`` for a
    definitive miss, or :data:`_TORN` when the slot was mid-write or the
    view so torn the probe chain never terminated (only possible
    mid-rebuild; the caller's version recheck would reject the attempt
    anyway — this just bounds the loop).
    """
    keys, filled = arrays["keys"], arrays["filled"]
    mask = probes = len(keys) - 1
    slot = splitmix64(user) & mask
    while True:
        if not filled[slot]:
            return None
        if keys[slot] == user:
            break
        if not probes:
            return _TORN
        probes -= 1
        slot = (slot + 1) & mask
    stamp = arrays["stamp"]
    s1 = int(stamp[slot])
    if s1 & 1:
        return _TORN
    count = int(arrays["count"][slot])
    row = (
        arrays["candidate"][slot, :count].tolist(),
        arrays["score"][slot, :count].tolist(),
        arrays["created_at"][slot, :count].tolist(),
        arrays["witnesses"][slot, :count].tolist(),
    )
    return row if int(stamp[slot]) == s1 else _TORN


def _copy_rows(arrays: dict[str, np.ndarray]):
    """Every materialized row out of a published view, as owned arrays.

    Steady-state value updates do not move the version, so the per-slot
    stamps are what reject a row torn mid-copy (:data:`_TORN`).
    """
    slots = np.flatnonzero(arrays["filled"])
    stamps_before = arrays["stamp"][slots]
    if (stamps_before & 1).any():
        return _TORN
    payload = {"users": arrays["keys"][slots]}
    for name in ("count", "candidate", "score", "created_at", "witnesses"):
        payload[name] = arrays[name][slots]  # the stamps are not state
    if (arrays["stamp"][slots] != stamps_before).any():
        return _TORN
    return payload


def _rows_to_dump(rows: dict[str, np.ndarray]) -> dict:
    """A consistent row copy as ``{user: [ServedRecommendation, ...]}``."""
    columns = ("users", "count", "candidate", "score", "created_at")
    return {
        user: [
            ServedRecommendation(*entry)
            for entry in zip(candidates[:count], scores, created)
        ]
        for user, count, candidates, scores, created in zip(
            *(rows[name].tolist() for name in columns)
        )
    }


def _header_gauge(word: int, doc: str) -> property:
    """A gauge the table's writer publishes in header word *word*."""
    return property(lambda self: int(self._header[word]), doc=doc)


def _shard_sum(name: str, doc: str) -> property:
    """The shards' *name* gauges, added up."""
    return property(
        lambda self: sum(getattr(shard, name) for shard in self.shards), doc=doc
    )


class _Derived:
    """What follows from a class's ``hits`` / ``misses`` / ``nbytes()`` /
    ``users_cached`` / ``state_arrays()``, lone table or sharded."""

    @property
    def hit_rate(self) -> float:
        """Fraction of reads that found a materialized row."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def bytes_per_user(self) -> float:
        """Resident bytes per materialized user (capacity amortized in).

        Total bytes over total users, *not* a mean of per-shard ratios (a
        hot shard's growth would otherwise be averaged away by cold
        shards sitting at their initial capacity).
        """
        return self.nbytes() / max(self.users_cached, 1)

    def dump(self) -> dict[int, list[ServedRecommendation]]:
        """Full cache contents (tests and multiset-equality checks only)."""
        return _rows_to_dump(self.state_arrays())


class _TableView(_Derived):
    """The one read path over a published table, whichever backing.

    A subclass supplies ``_header`` (the eight ``_CW_*`` words the
    table's writer publishes), ``_view()`` — the current generation's
    arrays as one published dict, None while no table is materialized
    yet, FileNotFoundError when the published generation vanished under
    the call (a retry) — plus ``nbytes()`` and ``posted_updates``.
    Everything else a reader can ask — point reads, the consistent
    whole-table copy, the gauges — is written here once, for the writer
    reading its own table and for a process attached to another's.
    """

    #: Data-segment (re)attaches; a table read where it is written has none.
    attaches = 0

    def __init__(self, k: int, half_life: float) -> None:
        self.k = k
        self.half_life = half_life
        self.hits = 0
        self.misses = 0

    def _consistent(self, copy, *user):
        """``copy(view, *user)`` from a view no structural change straddled.

        The table-version half of the seqlock, the generation re-attach
        and the retry cap; *copy* owns the per-slot stamps.  None when
        there is no table (or no such user) to copy from.
        """
        header = self._header
        for attempt in range(_READ_RETRIES):
            if attempt:
                time.sleep(0)  # yield so the in-flight writer can finish
            v1 = int(header[_CW_VERSION])
            if v1 & 1:
                continue
            try:
                arrays = self._view()
            except FileNotFoundError:
                continue  # generation republished under our probe
            result = None if arrays is None else copy(arrays, *user)
            if result is _TORN or int(header[_CW_VERSION]) != v1:
                continue  # raced a row publish / a rebuild or insert: retry
            return result
        what = f"read for user {user[0]}" if user else "snapshot"
        raise RuntimeError(
            f"serving {what} did not stabilize after {_READ_RETRIES} "
            "attempts (writer died mid-write?)"
        )

    def get_recommendations(
        self, user: int, k: int | None = None, now: float | None = None
    ) -> list[ServedRecommendation]:
        """The user's current top-(at most *k*) recommendations.

        Lock-free seqlock read: never blocks the writer, never returns a
        torn row.  An empty list is a miss (user not materialized) —
        misses and hits feed :attr:`hit_rate`.  With *now*, scores are
        recomputed through the shared
        :func:`~repro.delivery.scoring.decayed_scores` kernel and the row
        re-ranked by (score desc, candidate asc) — bitwise the ordering
        delivery would produce for the same (witnesses, created_at) at
        *now* — before the *k* cut.  Without *now*, the stored ranking
        (already (score desc, candidate asc), scores frozen as of the
        last refresh) is returned.
        """
        row = self._consistent(_copy_row, int(user))
        if not row or not row[0]:
            self.misses += 1
            return []
        self.hits += 1
        candidates, scores, created, witnesses = row
        limit = self.k if k is None else min(k, self.k)
        if now is None:
            return [
                ServedRecommendation(*entry)
                for entry in zip(candidates[:limit], scores, created)
            ]
        refreshed = decayed_scores(
            np.array(witnesses, dtype=np.int64),
            np.array(created, dtype=np.float64),
            now,
            self.half_life,
        )
        order = np.lexsort((np.array(candidates, dtype=np.int64), -refreshed))
        return [
            ServedRecommendation(candidates[i], float(refreshed[i]), created[i])
            for i in order[:limit].tolist()
        ]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Materialized rows as owned arrays (for incremental snapshots).

        A consistent copy: intended for quiescent moments (snapshots,
        post-run summaries); under a continuous writer it retries like
        any other read.  Row order follows slot order, which is a
        capacity artifact — consumers must treat the payload as an
        unordered keyed set.  The payload schema is the same whichever
        backing holds the table and whichever side reads it, so
        snapshots taken in any placement restore into any other.
        """
        rows = self._consistent(_copy_rows)
        if rows is None:  # no table materialized yet: same schema, no rows
            rows = _copy_rows(_heap_arrays(0, self.k))
        return rows

    # -- gauges: the writer publishes them in the header words ----------

    users_cached = _header_gauge(_CW_USERS, "Users with a materialized row.")
    updates = _header_gauge(_CW_UPDATES, "``update_columns`` merges applied.")
    rows_ingested = _header_gauge(_CW_ROWS, "Winner rows merged so far.")
    evictions = _header_gauge(_CW_EVICTIONS, "Users vacated by the TTL.")
    generation = _header_gauge(
        _CW_GENERATION, "The writer's currently published table generation."
    )

    def writer_stats(self) -> dict[str, float]:
        """This table's gauge row — one schema for every placement."""
        return {
            "users": float(self.users_cached),
            "updates": float(self.updates),
            "rows_ingested": float(self.rows_ingested),
            "evictions": float(self.evictions),
            "nbytes": float(self.nbytes()),
            "generation": float(self.generation),
            "attaches": float(self.attaches),
            "writer_lag_updates": float(self.posted_updates - self.updates),
            "last_now": float(self._header.view(np.float64)[_CW_LAST_NOW]),
        }

    def shard_stats(self) -> list[dict[str, float]]:
        """Per-shard gauge rows; a lone table is its own single shard."""
        return [self.writer_stats()]


class _IngestAdapters:
    """What the delivery-side taps call; both end in one
    ``update_columns`` over flat columns, scored with one kernel call."""

    def ingest_released(
        self, released: Iterable[Recommendation], now: float
    ) -> None:
        """Merge a ranked flush's released winners, scored as of *now*.

        The flush's :class:`~repro.core.recommendation.FlatRecommendations`
        is consumed as the columns it already is; a boxed sequence is
        columned first.

        >>> cache = ServingCache(k=2)
        >>> cache.ingest_released(
        ...     [Recommendation(1, 10, 0.0, via=(5, 6)), Recommendation(1, 11, 0.0)],
        ...     now=0.0,
        ... )
        >>> [(r.candidate, r.score) for r in cache.get_recommendations(1)]
        [(10, 2.0), (11, 1.0)]
        """
        if not isinstance(released, ColumnarRecommendations):
            released = FlatRecommendations.from_boxed(released)
        self.ingest_batch(released, now)

    def ingest_batch(self, batch: ColumnarRecommendations, now: float) -> None:
        """Merge a columnar candidate set (grouped or flat), unboxed."""
        if len(batch) == 0:
            return
        recipients, candidates, witnesses, created_at = batch.ranking_columns()
        self.update_columns(
            recipients,
            candidates,
            decayed_scores(witnesses, created_at, now, self.half_life),
            created_at,
            witnesses=witnesses,
            now=now,
        )


class ServingCache(_TableView, _IngestAdapters):
    """Columnar per-user top-k store: one writer, lock-free point reads.

    Args:
        k: materialized entries per user (the largest ``k`` a point query
            can ask for).
        half_life: freshness half-life used when scoring boxed offers and
            re-decaying at read time.
        capacity: initial user-table slot count (power of two; grows).
        ttl: when set, users whose *newest* entry is older than ``now -
            ttl`` are dormant: their slots are vacated before any table
            growth (reclaiming capacity first) and by explicit
            :meth:`evict_dormant` sweeps.  Needs ``now`` on the ingest
            path — the adapters pass it through.
        arena: internal — the :class:`_ArenaBacking` that puts the table
            in shared memory (use :meth:`attach_writer`).

    Merge semantics (what :meth:`update_columns` folds in, and what the
    dict-of-dicts reference in the tests replays): within one update,
    later rows replace earlier rows of the same (user, candidate); the
    update's rows then merge with the user's existing entries — same
    candidate replaces in place, new candidates compete — and the user
    keeps the top ``k`` by (score desc, candidate asc).  Entries pushed
    below the cut are forgotten (no resurrection on later decay).
    """

    def __init__(
        self,
        k: int = 2,
        half_life: float = 1_800.0,
        capacity: int = 1024,
        ttl: float | None = None,
        arena: _ArenaBacking | None = None,
    ) -> None:
        require_positive(k, "k")
        require_positive(half_life, "half_life")
        if ttl is not None:
            require_positive(ttl, "ttl")
        self._backing = arena or _HeapBacking(k)
        super().__init__(k, half_life)
        #: ``_header[_CW_VERSION]`` is the table-wide structural seqlock
        #: (odd while slots may move): an array word, not a plain int, so
        #: readers and the writer share one memory location — across
        #: threads on the heap, across processes in the control segment.
        self._header = self._backing.header
        self.ttl = ttl
        self._table = Int64KeyTable(
            _column_specs(k), capacity=capacity, allocator=self._backing.allocate
        )
        self._publish()

    @classmethod
    def attach_writer(cls, spec: ServingArenaSpec) -> "ServingCache":
        """Build the shard-worker-resident writer over a shm arena."""
        return cls(*spec[1:], arena=_ArenaBacking(spec))  # name + shape

    def close(self) -> None:
        """Release the backing (arena: unlink the live data segment).

        Drops the table and the header view first — their views are what
        keep the mappings exported — so the segments unmap cleanly.  The
        cache is unusable afterwards (it only runs at writer shutdown).
        """
        self._table = self._header = None
        self._backing.close()

    def _view(self) -> dict[str, np.ndarray] | None:
        return self._backing.arrays

    @property
    def posted_updates(self) -> int:
        """Merges apply where they are posted: no writer lag, ever."""
        return self.updates

    def _publish(self, now: float | None = None) -> None:
        """Store the gauges the counters don't cover: users, merge clock."""
        self._header[_CW_USERS] = len(self._table)
        if now is not None:
            self._header.view(np.float64)[_CW_LAST_NOW] = now

    # ------------------------------------------------------------------
    # Write path (single writer)
    # ------------------------------------------------------------------

    def update_columns(
        self,
        recipients: np.ndarray,
        candidates: np.ndarray,
        scores: np.ndarray,
        created_at: np.ndarray,
        witnesses: np.ndarray | None = None,
        now: float | None = None,
    ) -> None:
        """Merge one flush window's winners into the materialized rows.

        The first four columns are positionally aligned; *witnesses*
        (optional, defaults to 1 — the same "unwitnessed scores as a
        single witness" convention the scoring kernel clamps to) rides
        along so read-time re-decay can reproduce each entry's score at
        any later ``now``.  One vectorized pass: existing entries for the
        touched users are gathered, deduped against the new rows ((user,
        candidate) latest-wins), re-ranked, and the top-k scattered back
        under the seqlock stamps.  *now* feeds TTL compaction and the
        writer gauges.
        """
        n = len(recipients)
        if n == 0:
            return
        self._header[_CW_UPDATES] += 1
        self._header[_CW_ROWS] += n
        if witnesses is None:
            witnesses = np.ones(n, dtype=np.int64)
        users = np.unique(recipients)
        slots = self._upsert_users(users, now)
        table = self._table
        counts = table.columns["count"][slots]

        # Gather the touched users' existing entries as flat rows.
        total = int(counts.sum())
        row_of = np.repeat(slots, counts)
        seg_starts = np.cumsum(counts) - counts
        col_of = np.arange(total) - np.repeat(seg_starts, counts)
        all_users = np.concatenate([np.repeat(users, counts), recipients])
        all_cand = np.concatenate(
            [table.columns["candidate"][row_of, col_of], candidates]
        )
        all_score = np.concatenate(
            [table.columns["score"][row_of, col_of], scores]
        )
        all_created = np.concatenate(
            [table.columns["created_at"][row_of, col_of], created_at]
        )
        all_wit = np.concatenate(
            [table.columns["witnesses"][row_of, col_of], witnesses]
        )

        # Dedup (user, candidate), keeping the latest occurrence — new
        # rows sit after existing rows, so a re-offered candidate's fresh
        # score replaces the stale entry.
        position = np.arange(len(all_users))
        order = np.lexsort((-position, all_cand, all_users))
        sorted_users = all_users[order]
        sorted_cand = all_cand[order]
        first = np.r_[
            True,
            (sorted_users[1:] != sorted_users[:-1])
            | (sorted_cand[1:] != sorted_cand[:-1]),
        ]
        kept = order[first]
        kept_users = sorted_users[first]
        kept_cand = sorted_cand[first]
        kept_score = all_score[kept]
        kept_created = all_created[kept]
        kept_wit = all_wit[kept]

        # Per-user top-k by (score desc, candidate asc) — the exact
        # ranking TopKPerUserBuffer.flush releases winners in.
        ranking = np.lexsort((kept_cand, -kept_score, kept_users))
        ranked_users = kept_users[ranking]
        run_first = np.r_[True, ranked_users[1:] != ranked_users[:-1]]
        run_starts = np.flatnonzero(run_first)
        run_ids = np.cumsum(run_first) - 1
        rank_in_run = np.arange(len(ranking)) - run_starts[run_ids]
        win = rank_in_run < self.k
        win_users = ranked_users[win]
        win_cand = kept_cand[ranking[win]]
        win_score = kept_score[ranking[win]]
        win_created = kept_created[ranking[win]]
        win_wit = kept_wit[ranking[win]]
        win_rank = rank_in_run[win]
        user_index = np.searchsorted(users, win_users)
        win_slots = slots[user_index]
        new_counts = np.bincount(user_index, minlength=len(users))

        # Publish under the per-slot seqlock: stamps go odd, every value
        # lands, stamps go even.  A reader of any touched user retries
        # across this window; untouched users never notice.
        stamp = table.columns["stamp"]
        stamp[slots] += 1
        table.columns["count"][slots] = new_counts
        table.columns["candidate"][win_slots, win_rank] = win_cand
        table.columns["score"][win_slots, win_rank] = win_score
        table.columns["created_at"][win_slots, win_rank] = win_created
        table.columns["witnesses"][win_slots, win_rank] = win_wit
        stamp[slots] += 1
        self._publish(now)

    def _upsert_users(
        self, users: np.ndarray, now: float | None = None
    ) -> np.ndarray:
        """Slots for sorted distinct *users*, inserting the missing ones.

        Structural work (growing the table, inserting keys) runs inside
        the table-wide version seqlock — slots may move, so readers must
        not trust a probe that straddles it.  When a growth rebuild runs
        and a TTL is configured, dormant users are compacted away first
        (the lazy ``keep`` hook), reclaiming capacity before it doubles.
        """
        table = self._table
        keys = users.astype(np.uint64)
        slots = table.lookup(keys)
        missing = slots < 0
        need = int(missing.sum())
        if need:
            header = self._header
            header[_CW_VERSION] += 1  # odd: slots may move / appear
            if table.reserve(need, keep=self._dormancy_keep(now)):
                slots = table.lookup(keys)
                missing = slots < 0
            slots[missing] = table.insert(keys[missing])
            header[_CW_VERSION] += 1  # even: structure stable again
        return slots

    def _dormancy_mask(self, now: float) -> np.ndarray:
        """Per-slot keep mask: True where the newest entry beats the TTL.

        A user is dormant when *every* entry (and therefore the newest)
        is older than ``now - ttl``; empty rows are dormant by definition.
        """
        table = self._table
        counts = table.columns["count"]
        created = table.columns["created_at"]
        live = np.arange(self.k, dtype=np.int64)[None, :] < counts[:, None]
        newest = np.where(live, created, -np.inf).max(axis=1)
        return newest >= now - self.ttl

    def _dormancy_keep(self, now: float | None):
        """The lazy ``keep`` callback for ``reserve`` (None when unarmed)."""
        if self.ttl is None or now is None:
            return None

        def keep() -> np.ndarray:
            mask = self._dormancy_mask(now)
            live = self._table.filled_slots()
            self._header[_CW_EVICTIONS] += int(len(live) - mask[live].sum())
            return mask

        return keep

    def evict_dormant(self, now: float) -> int:
        """Vacate every user whose newest entry is older than the TTL.

        The eager sweep (the grow path evicts lazily): a non-growing
        compaction inside the table-wide version seqlock, so concurrent
        readers follow the normal structural-retry contract.  Returns the
        number of users evicted; a no-op without a configured ``ttl``.
        """
        if self.ttl is None:
            return 0
        keep = self._dormancy_mask(now)
        header = self._header
        header[_CW_VERSION] += 1
        dropped = self._table.compact(keep)
        header[_CW_VERSION] += 1
        header[_CW_EVICTIONS] += dropped
        self._publish(now)
        return dropped

    def nbytes(self) -> int:
        """Resident bytes across the user table and all slot matrices."""
        return self._table.nbytes() + self._header.nbytes

    # ------------------------------------------------------------------
    # Durable-state hook (recovery rebuild; capture is ``state_arrays``)
    # ------------------------------------------------------------------

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Merge a :meth:`state_arrays` payload into this cache.

        Rows land whole (count + full slot matrices) under the same
        seqlock discipline as a live update, so readers may run
        concurrently.  The payload's ``k`` width must match this cache's.
        Payloads from before the witnesses column default to one witness
        per entry (the scoring kernel's clamp floor).
        """
        users = arrays["users"]
        if len(users) == 0:
            return
        if arrays["candidate"].shape[1] != self.k:
            raise ValueError(
                f"state payload has k={arrays['candidate'].shape[1]}, "
                f"cache expects k={self.k}"
            )
        witnesses = arrays.get("witnesses")
        if witnesses is None:
            witnesses = np.ones_like(arrays["candidate"])
        order = np.argsort(users.astype(np.int64))
        slots = self._upsert_users(users.astype(np.int64)[order])
        table = self._table
        stamp = table.columns["stamp"]
        stamp[slots] += 1
        table.columns["count"][slots] = arrays["count"][order]
        table.columns["candidate"][slots] = arrays["candidate"][order]
        table.columns["score"][slots] = arrays["score"][order]
        table.columns["created_at"][slots] = arrays["created_at"][order]
        table.columns["witnesses"][slots] = witnesses[order]
        stamp[slots] += 1
        self._publish()


class ServingCacheReader(_TableView):
    """Read-only attach-by-spec view of a worker-resident serving cache.

    The query / stats / dump / snapshot surface of :class:`ServingCache`
    — the very same :class:`_TableView` code — over the shm arena
    another process writes.  Reads follow the same two-level seqlock
    contract plus one extra hop: when the control segment's generation
    word moves (the writer rebuilt), the reader re-attaches the new data
    segment by its deterministic name (counted in :attr:`attaches`) and
    retries.  Not thread-safe — one reader instance per reading
    thread/loop, exactly like the writer is one per shard.
    """

    def __init__(self, spec: ServingArenaSpec) -> None:
        self.spec = spec
        self._control = ShmArena.attach(spec.control_name, [])
        super().__init__(spec.k, spec.half_life)
        self._data: ShmArena | None = None
        #: Superseded generations still pinned by a caller's views (a read
        #: loop's locals from the attempt that straddled the hop); reaped
        #: on the next hop and at :meth:`close`, never left to ``__del__``.
        self._retired: list[ShmArena] = []
        self._generation = 0
        #: Data-segment (re)attaches — 1 + one per observed generation hop.
        self.attaches = 0
        #: Serving-bearing messages the parent posted to this shard's
        #: worker; the monitor's writer-lag gauge compares it against the
        #: worker's published update counter.
        self.posted_updates = 0

    @classmethod
    def attach(cls, spec: ServingArenaSpec) -> "ServingCacheReader":
        return cls(spec)

    @property
    def _header(self) -> np.ndarray:
        # Not cached: a view held here would pin the control mapping past
        # close() — or past a reader that is dropped without one.
        return self._control.header

    # -- generation tracking --------------------------------------------

    def _view(self) -> dict[str, np.ndarray] | None:
        """Attach the published generation's data arena if it moved: None
        on a fresh control (generation 0), FileNotFoundError when that
        segment vanished under us (writer grew again, or exited)."""
        generation = self.generation
        if generation == 0:
            return None
        if generation != self._generation:
            data = ShmArena.attach_dynamic(
                _data_segment_name(self.spec.control_name, generation),
                lambda header: _data_fields(int(header[0]), int(header[1])),
            )
            if self._data is not None:
                self._retired.append(self._data)
            self._retired = _reap(self._retired)
            self._data = data
            self._generation = generation
            self.attaches += 1
        return self._data.arrays

    def pin(self) -> None:
        """Attach the current generation now (pre-shutdown refresh).

        Called before the writer exits: POSIX keeps unlinked segments
        alive for processes that mapped them, so pinning the final
        generation keeps post-run reads (summaries, snapshots) working
        after the writer's segments are reclaimed.
        """
        try:
            self._view()
        except FileNotFoundError:
            pass

    def reclaim_segments(self) -> None:
        """Unlink every data generation this shard's writer may have left.

        The parent's half of the reclamation sweep: generation names are
        deterministic, so even a ``kill -9``'d writer's segments are
        reclaimable without ever having owned a handle.  Generations the
        writer already unlinked (growth, graceful close) skip silently;
        ``generation + 1`` covers a writer killed between creating a new
        segment and publishing its number.
        """
        for g in range(1, self.generation + 2):
            unlink_segment(_data_segment_name(self.spec.control_name, g))

    def close(self) -> None:
        """Drop the reader's mappings (never unlinks)."""
        self._retired = _reap(self._retired)
        if self._data is not None:
            self._data.close()
            self._data = None
        self._control.close()

    def nbytes(self) -> int:
        """Mapped bytes: the control segment plus the attached generation."""
        data = self._data
        return self._control.nbytes() + (0 if data is None else data.nbytes())


class _ShardedView(_Derived):
    """Routing and aggregates over ``self.shards``, one table per shard.

    Sharding uses ``splitmix64(user) % num_shards`` — the *same* keying
    as :class:`~repro.delivery.sharded.ShardedDeliveryPipeline` — so
    every user's cache updates originate from exactly one delivery
    shard's flushes: each shard's table is single-writer by
    construction, which is what the per-shard seqlock discipline
    requires.  Whether the shards are writers in this process or readers
    attached to another's, the frontend, query load generator, monitor,
    and durability manager consume this one surface.
    """

    def __init__(self, shards: list) -> None:
        require_positive(len(shards), "num_shards")
        self.shards = shards
        self.num_shards = len(shards)
        self.k = shards[0].k

    def shard_of(self, user: int) -> int:
        """The shard owning *user* (stable splitmix64 hash)."""
        return splitmix64(user) % self.num_shards

    def get_recommendations(
        self, user: int, k: int | None = None, now: float | None = None
    ) -> list[ServedRecommendation]:
        """Point lookup, routed to the owning shard."""
        return self.shards[self.shard_of(user)].get_recommendations(
            user, k, now=now
        )

    # -- aggregated stats -----------------------------------------------

    users_cached = _shard_sum("users_cached", "Users materialized, all shards.")
    hits = _shard_sum("hits", "Reads that found a row, all shards.")
    misses = _shard_sum("misses", "Reads that found none, all shards.")
    updates = _shard_sum("updates", "Merges applied, all shards.")
    rows_ingested = _shard_sum("rows_ingested", "Winner rows merged, all shards.")
    evictions = _shard_sum("evictions", "Users vacated by the TTL, all shards.")

    def nbytes(self) -> int:
        """Resident bytes summed over shards."""
        return sum(shard.nbytes() for shard in self.shards)

    def shard_stats(self) -> list[dict[str, float]]:
        """Per-shard gauge rows (lag, generation, attaches, ...) — the
        monitor's per-shard visibility."""
        return [shard.writer_stats() for shard in self.shards]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Every shard's rows concatenated (shard split is re-derived
        from the user hash on load, so it is not persisted)."""
        parts = [shard.state_arrays() for shard in self.shards]
        return {
            name: np.concatenate([part[name] for part in parts])
            for name in parts[0]
        }


class ShardedServingCache(_ShardedView, _IngestAdapters):
    """Recipient-hash-sharded serving caches, one writer per shard.

    The ingest surface splits incoming rows by the routing hash, so
    callers can feed it from an unsharded path too (one logical writer
    is still one writer per shard).
    """

    def __init__(
        self,
        num_shards: int = 1,
        k: int = 2,
        half_life: float = 1_800.0,
        capacity: int = 1024,
        ttl: float | None = None,
    ) -> None:
        super().__init__(
            [
                ServingCache(k=k, half_life=half_life, capacity=capacity, ttl=ttl)
                for _ in range(num_shards)
            ]
        )
        self.half_life = half_life

    def _by_shard(self, users: np.ndarray):
        """(shard cache, row selector) per shard owning some of *users*."""
        if self.num_shards == 1:
            yield self.shards[0], slice(None)
            return
        shards = shard_ids(users, self.num_shards)
        for shard in np.unique(shards).tolist():
            yield self.shards[shard], shards == shard

    def update_columns(
        self,
        recipients: np.ndarray,
        candidates: np.ndarray,
        scores: np.ndarray,
        created_at: np.ndarray,
        witnesses: np.ndarray | None = None,
        now: float | None = None,
    ) -> None:
        """Split aligned winner columns by recipient hash and merge."""
        for cache, rows in self._by_shard(recipients):
            cache.update_columns(
                recipients[rows],
                candidates[rows],
                scores[rows],
                created_at[rows],
                witnesses=None if witnesses is None else witnesses[rows],
                now=now,
            )

    def evict_dormant(self, now: float) -> int:
        """TTL sweep across every shard; returns users evicted."""
        return sum(shard.evict_dormant(now) for shard in self.shards)

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Split a :meth:`state_arrays` payload by user hash and merge."""
        for cache, rows in self._by_shard(arrays["users"]):
            cache.load_state(
                {name: values[rows] for name, values in arrays.items()}
            )


class ShardedServingCacheReader(_ShardedView):
    """Routed read-only view over every shard's worker-resident cache —
    the parent side of in-worker serving: one :class:`ServingCacheReader`
    per delivery shard."""

    @classmethod
    def attach(cls, specs: Iterable[ServingArenaSpec]) -> "ShardedServingCacheReader":
        return cls([ServingCacheReader(spec) for spec in specs])

    @property
    def specs(self) -> list[ServingArenaSpec]:
        return [reader.spec for reader in self.shards]

    def pin(self) -> None:
        """Attach every shard's current generation (pre-shutdown)."""
        for reader in self.shards:
            reader.pin()

    def reclaim_segments(self) -> None:
        """Unlink every shard's possible data generations (close path)."""
        for reader in self.shards:
            reader.reclaim_segments()

    def close(self) -> None:
        for reader in self.shards:
            reader.close()
