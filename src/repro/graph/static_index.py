"""The paper's **S** structure: inverse follower adjacency, sorted & static.

S answers one query: *given B, which A's follow B?* — with the A lists kept
sorted so the detector can intersect them cheaply.  Mirroring production:

* S is **bulk loaded** from an offline snapshot of the ``A -> B`` follow
  edges (the paper computes these offline "to take advantage of rich
  features to prune the graph") and is immutable afterwards;
* each user's *influencer list* (the B's an A follows) may be truncated to
  the top-``influencer_limit`` entries by weight, which both improves
  candidate quality and bounds S's memory;
* a partition holds only the A's it owns, so one bulk load
  (:meth:`StaticFollowerIndex.load_shards`) splits the snapshot into
  every partition's shard in a single O(E) columnar pass.

Storage is CSR-style: every follower list lives back-to-back in a single
``int64`` numpy arena indexed by an offsets table, so ``followers_of`` is a
true zero-copy arena slice with no per-key buffer object.  An
append-and-compact overlay keeps incremental graph updates possible without
giving up the contiguous layout.  ``follower_array(b)`` — the same slice,
``None`` when empty — is what the batched detector consumes.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.ids import UserId
from repro.util.validation import require_positive

if TYPE_CHECKING:
    from repro.graph.snapshot import GraphSnapshot

#: Follow edges per chunk of the bulk load's counting sort (bounds its
#: temporaries whatever the snapshot's size).
_LOAD_CHUNK_EDGES = 1 << 16

#: One packed S: ``(keys, offsets, arena)``; ``keys[i]``'s sorted followers
#: are ``arena[offsets[i]:offsets[i + 1]]``.
PackedRows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _invert_csr(
    indptr: np.ndarray,
    indices: np.ndarray,
    owners: np.ndarray,
    num_shards: int,
    influencer_limit: int | None = None,
    edge_weight: Callable[[UserId, UserId], float] | None = None,
    ids: np.ndarray | None = None,
) -> list[PackedRows]:
    """Invert a forward CSR (row ``a``: the sorted distinct B's A ``a``
    follows) into the packed S of every shard ``owners[a]``.

    Rows and columns are dense numbers; *ids*, when given, maps them to
    (increasing) user ids.  A chunked counting sort over ``(shard, B)``
    slots: pass one counts each slot's followers, which fixes every shard's
    offsets and sizes its arena exactly; pass two scatters each chunk's A's
    at their slot's cursor.  Chunks are consecutive rows, sorted stably by
    slot, so every follower list comes out ascending with no whole-graph
    sort: beyond the output, memory is one cursor per slot plus one chunk.
    """
    if influencer_limit is not None:
        require_positive(influencer_limit, "influencer_limit")
    width = len(indptr) - 1
    chunk_rows = np.searchsorted(
        indptr, np.arange(0, len(indices), _LOAD_CHUNK_EDGES), side="right"
    ) - 1
    cuts = [*dict.fromkeys(chunk_rows.tolist()), width]

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(A's, slots)`` of each chunk's kept edges, A ascending."""
        for first, stop in zip(cuts, cuts[1:]):
            lo, hi = indptr[first], indptr[stop]
            degrees = np.diff(indptr[first : stop + 1])
            a = np.repeat(np.arange(first, stop), degrees)
            b = indices[lo:hi]
            if influencer_limit is not None:
                if edge_weight is not None:  # heaviest first, lowest B on ties
                    ua, ub = (a, b) if ids is None else (ids[a], ids[b])
                    weights = np.fromiter(
                        map(edge_weight, ua.tolist(), ub.tolist()), float, len(b)
                    )
                    b = b[np.lexsort((b, -weights, a))]
                rank = np.arange(lo, hi) - np.repeat(indptr[first:stop], degrees)
                kept = rank < influencer_limit
                a, b = a[kept], b[kept]
            yield a, owners[a] * width + b

    cursor = np.zeros(num_shards * width, dtype=np.int64)
    for _a, slots in chunks():
        np.add.at(cursor, slots, 1)
    used = np.flatnonzero(cursor)
    offsets = np.zeros(len(used) + 1, dtype=np.int64)
    np.cumsum(cursor[used], out=offsets[1:])
    bounds = np.searchsorted(used, np.arange(num_shards + 1) * width)
    bases = offsets[bounds]
    # A slot's cursor starts at its row's offset within its own shard.
    cursor[used] = offsets[:-1] - np.repeat(bases[:-1], np.diff(bounds))
    arenas = [np.empty(size, dtype=np.int64) for size in np.diff(bases).tolist()]
    for a, slots in chunks():
        order = np.argsort(slots, kind="stable")
        slots, a = slots[order], a[order] if ids is None else ids[a[order]]
        starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
        lengths = np.diff(np.append(starts, len(slots)))
        positions = cursor[slots] + np.arange(len(slots)) - np.repeat(starts, lengths)
        cursor[slots[starts]] += lengths
        split = np.searchsorted(slots, np.arange(num_shards + 1) * width)
        for shard in np.flatnonzero(np.diff(split)).tolist():
            lo, hi = split[shard], split[shard + 1]
            arenas[shard][positions[lo:hi]] = a[lo:hi]
    keys = used - np.repeat(np.arange(num_shards) * width, np.diff(bounds))
    if ids is not None:
        keys = ids[keys]
    return [
        (keys[lo:hi], offsets[lo : hi + 1] - offsets[lo], arena)
        for lo, hi, arena in zip(bounds[:-1], bounds[1:], arenas)
    ]


def _row_columns(rows: Mapping[UserId, Iterable[UserId]]) -> tuple[np.ndarray, np.ndarray]:
    """The ``(A's, B's)`` edge columns of a ``B -> A's`` mapping."""
    lengths = [len(a_list) for a_list in rows.values()]
    src = np.fromiter(chain.from_iterable(rows.values()), np.int64, sum(lengths))
    return src, np.repeat(np.fromiter(rows, np.int64, len(rows)), lengths)


def _invert_pairs(
    src: np.ndarray,
    dst: np.ndarray,
    influencer_limit: int | None = None,
    edge_weight: Callable[[UserId, UserId], float] | None = None,
) -> PackedRows:
    """One packed S from ``(A, B)`` edge columns of any ids, duplicates
    allowed: ids are renumbered densely, so nothing is sized by the largest."""
    ids, numbers = np.unique(np.concatenate((src, dst)), return_inverse=True)
    graph = CsrGraph.from_arrays(numbers[: len(src)], numbers[len(src) :], len(ids))
    owners = np.zeros(len(ids), dtype=np.int64)
    (packed,) = _invert_csr(
        graph._indptr, graph._indices, owners, 1, influencer_limit, edge_weight, ids
    )
    return packed


class StaticFollowerIndex:
    """Immutable map ``B -> sorted A's that follow B``, in one int64 arena.

    Per-B state shrinks to one dict slot holding a row number; the follower
    ids themselves live back-to-back in a single numpy arena, so

    * ``followers_of`` / ``follower_array`` return zero-copy arena slices
      (no per-key buffer object, no conversion on the batched hot path);
    * memory per edge is exactly 8 bytes plus one offsets slot per B.

    The arena is immutable, matching the paper's periodically-bulk-loaded
    S — but incremental updates stay possible through an **append-and-
    compact** overlay: :meth:`append_follow_edges` buffers new edges per B,
    queries merge the overlay on demand (cached), and :meth:`compact`
    folds the overlay back into a fresh contiguous arena.  Appends auto-
    compact once the overlay reaches :attr:`compact_threshold` edges, so
    sustained update streams converge back to pure-arena layout.
    """

    #: Overlay size (edges) that triggers an automatic :meth:`compact`
    #: (a class default; assign on an instance to change it there).
    compact_threshold = 4096

    def __init__(self, followers: Mapping[UserId, Sequence[UserId]]) -> None:
        """Pack a ``B -> A's`` mapping (sorted and de-duplicated here).

        Prefer :meth:`from_follow_edges`, which also applies the influencer
        cap and partition predicate.
        """
        self._install(*_invert_pairs(*_row_columns(followers)))

    def _install(self, keys: np.ndarray, offsets: np.ndarray, arena: np.ndarray) -> None:
        """Adopt packed ``(keys, offsets, arena)`` as-is; empty the overlay."""
        self._arena = arena
        self._offsets = offsets
        #: Python-int row bounds for scalar lookups (a ``tolist`` upfront is
        #: far cheaper than boxing two numpy scalars per followers_of call).
        self._bounds: list[int] = offsets.tolist()
        self._rows: dict[UserId, int] = dict(zip(keys.tolist(), range(len(keys))))
        # Overlay state for the append-and-compact update path.
        self._pending: dict[UserId, set[UserId]] = {}
        self._pending_edges = 0
        self._merged_cache: dict[UserId, np.ndarray] = {}

    @classmethod
    def _adopt(cls, packed: PackedRows) -> "StaticFollowerIndex":
        """An index over already-packed arrays (no copy, no sort)."""
        index = cls.__new__(cls)
        index._install(*packed)
        return index

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_follow_edges(
        cls,
        edges: Iterable[tuple[UserId, UserId]],
        influencer_limit: int | None = None,
        edge_weight: Callable[[UserId, UserId], float] | None = None,
        include_source: Callable[[UserId], bool] | None = None,
    ) -> "StaticFollowerIndex":
        """Bulk-load S from ``(A, B)`` follow edges (*A follows B*).

        Args:
            edges: iterable of ``(A, B)`` pairs; duplicates are collapsed.
            influencer_limit: if given, each A keeps only its
                ``influencer_limit`` highest-weight B's before inversion.
            edge_weight: scoring function for the influencer cap; defaults to
                uniform weights, which makes truncation arbitrary-but-
                deterministic (lowest B ids win ties).
            include_source: partition predicate, asked once per distinct A
                — only A's for which it returns True are loaded (``None``
                keeps everyone).
        """
        pairs = np.fromiter(chain.from_iterable(edges), np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        if include_source is not None:
            sources, inverse = np.unique(src, return_inverse=True)
            owned = np.fromiter(
                map(include_source, sources.tolist()), bool, len(sources)
            )[inverse]
            src, dst = src[owned], dst[owned]
        return cls._adopt(_invert_pairs(src, dst, influencer_limit, edge_weight))

    @classmethod
    def load_shards(
        cls,
        snapshot: "GraphSnapshot",
        owners: np.ndarray,
        num_shards: int,
        influencer_limit: int | None = None,
    ) -> list["StaticFollowerIndex"]:
        """Bulk-load every partition's S shard from an offline snapshot.

        This is the "periodic offline load" step of the paper: take the
        forward ``A -> B`` snapshot, apply the per-user influencer cap using
        the snapshot's edge weights, and split the A's by owner —
        ``owners[a]`` in ``[0, num_shards)`` for every user ``a``.  One O(E)
        columnar pass over the snapshot's CSR builds all *num_shards*.
        """
        weight = snapshot.weight_of if snapshot.edge_weights else None
        graph = snapshot.graph
        return [
            cls._adopt(packed)
            for packed in _invert_csr(
                graph._indptr, graph._indices, owners, num_shards, influencer_limit, weight
            )
        ]

    # ------------------------------------------------------------------
    # Incremental updates (append-and-compact)
    # ------------------------------------------------------------------

    def append_follow_edges(self, edges: Iterable[tuple[UserId, UserId]]) -> int:
        """Add ``(A, B)`` follow edges on top of the loaded arena.

        Duplicates of already-loaded or already-appended edges are ignored.
        Queries observe appended edges immediately (merged on demand); the
        arena itself is only rewritten by :meth:`compact`, which runs
        automatically once the overlay holds :attr:`compact_threshold`
        edges.  Note the influencer cap is applied at bulk-load time only —
        callers streaming updates are expected to cap upstream, as the
        production offline pipeline does.

        **Not for indexes bound to live detectors**: the serving stack
        treats a bound S as immutable (detectors memoize follower arrays
        until ``rebind_static``), so appending to a bound index would let
        the batched and per-event paths observe different graphs.  Append
        on the loading side, then swap the index in via the engine's
        ``reload_static_index`` — the same discipline as any offline
        reload.

        Returns the number of genuinely new edges added.
        """
        added = 0
        for a, b in edges:
            if self._base_has_edge(a, b):
                continue
            pending = self._pending.get(b)
            if pending is None:
                pending = self._pending[b] = set()
            if a in pending:
                continue
            pending.add(a)
            self._pending_edges += 1
            self._merged_cache.pop(b, None)
            added += 1
        if self._pending_edges >= self.compact_threshold:
            self.compact()
        return added

    def compact(self) -> None:
        """Fold the append overlay back into one contiguous arena."""
        if not self._pending_edges:
            return
        src, dst = _row_columns(self._pending)
        base_dst = np.repeat(self._keys(), np.diff(self._offsets))
        self._install(
            *_invert_pairs(
                np.concatenate((self._arena, src)), np.concatenate((base_dst, dst))
            )
        )

    def _keys(self) -> np.ndarray:
        """The arena's row keys, in row order."""
        return np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))

    @property
    def pending_edges(self) -> int:
        """Appended edges not yet folded into the arena."""
        return self._pending_edges

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def followers_of(self, b: UserId) -> np.ndarray:
        """Sorted follower ids of *b* (empty array if unknown).

        A zero-copy arena slice unless *b* has pending appended edges, in
        which case a merged (and cached) array is returned.
        """
        row = self._rows.get(b)
        if self._pending:
            merged = self._lookup_merged(b, row)
            if merged is not None:
                return merged
        if row is None:
            return _EMPTY_NDARRAY
        bounds = self._bounds
        return self._arena[bounds[row] : bounds[row + 1]]

    def follower_array(self, b: UserId) -> np.ndarray | None:
        """Like :meth:`followers_of` but ``None`` when *b* is empty."""
        result = self.followers_of(b)
        if len(result):
            return result
        return None

    def has_edge(self, a: UserId, b: UserId) -> bool:
        """True iff *a* follows *b* (binary search in the arena slice)."""
        if self._base_has_edge(a, b):
            return True
        pending = self._pending.get(b)
        return pending is not None and a in pending

    def _base_has_edge(self, a: UserId, b: UserId) -> bool:
        row = self._rows.get(b)
        if row is None:
            return False
        bounds = self._bounds
        lo, hi = bounds[row], bounds[row + 1]
        position = bisect_left(self._arena, a, lo, hi)
        return position < hi and self._arena[position] == a

    def _lookup_merged(self, b: UserId, row: int | None) -> np.ndarray | None:
        """The merged base+overlay list for *b*, or None if no overlay."""
        merged = self._merged_cache.get(b)
        if merged is not None:
            return merged
        pending = self._pending.get(b)
        if pending is None:
            return None
        merged = self._merged(b, row)
        self._merged_cache[b] = merged
        return merged

    def _merged(self, b: UserId, row: int | None) -> np.ndarray:
        """Base slice of *b* merged with its pending appends, sorted."""
        pending = self._pending.get(b)
        if row is None:
            base = _EMPTY_NDARRAY
        else:
            bounds = self._bounds
            base = self._arena[bounds[row] : bounds[row + 1]]
        if not pending:
            return base
        extra = np.fromiter(pending, dtype=np.int64, count=len(pending))
        merged = np.concatenate((base, extra))
        merged.sort()
        return merged

    def __contains__(self, b: UserId) -> bool:
        return b in self._rows or b in self._pending

    def sources(self) -> Iterator[UserId]:
        """All B's with at least one loaded follower."""
        yield from self._rows
        for b in self._pending:
            if b not in self._rows:
                yield b

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def num_targets(self) -> int:
        """Number of distinct B's in the index."""
        extra = sum(1 for b in self._pending if b not in self._rows)
        return len(self._rows) + extra

    @property
    def num_edges(self) -> int:
        """Total loaded ``A -> B`` edges (arena + overlay)."""
        return len(self._arena) + self._pending_edges

    def memory_bytes(self) -> int:
        """Approximate heap footprint of arena, offsets, and row dict."""
        total = int(self._arena.nbytes) + int(self._offsets.nbytes)
        # One boxed bound per offsets slot plus ~60B per row-dict entry
        # (key + small-int row value).
        total += len(self._bounds) * 32 + len(self._rows) * 60
        total += self._pending_edges * 80  # boxed overlay sets
        return total

    def degree_histogram(self) -> dict[int, int]:
        """Map ``follower-count -> number of B's with that count``."""
        histogram: dict[int, int] = {}
        if self._pending:
            for b in self.sources():
                degree = len(self.followers_of(b))
                histogram[degree] = histogram.get(degree, 0) + 1
            return histogram
        degrees = np.diff(self._offsets)
        for degree, count in zip(*np.unique(degrees, return_counts=True)):
            histogram[int(degree)] = int(count)
        return histogram


_EMPTY_NDARRAY = np.empty(0, dtype=np.int64)
_EMPTY_NDARRAY.setflags(write=False)
