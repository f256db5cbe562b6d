"""The paper's **S** structure: inverse follower adjacency, sorted & static.

S answers one query: *given B, which A's follow B?* — with the A lists kept
sorted so the detector can intersect them cheaply.  Mirroring production:

* S is **bulk loaded** from an offline snapshot of the ``A -> B`` follow
  edges (the paper computes these offline "to take advantage of rich
  features to prune the graph") and is immutable afterwards;
* each user's *influencer list* (the B's an A follows) may be truncated to
  the top-``influencer_limit`` entries by weight, which both improves
  candidate quality and bounds S's memory;
* a partition holds only the A's it owns, so construction accepts an
  ``include_source`` predicate.

Storage is CSR-style: every follower list lives back-to-back in a single
``int64`` numpy arena indexed by an offsets table (see
:func:`repro.graph.csr.pack_rows`), so ``followers_of`` is a true zero-copy
arena slice with no per-key buffer object.  An append-and-compact overlay
keeps incremental graph updates possible without giving up the contiguous
layout.  ``follower_array(b)`` — the same slice, ``None`` when empty — is
what the batched detector consumes.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.graph.csr import pack_rows
from repro.graph.ids import UserId
from repro.util.validation import require_positive


def _with_npz_suffix(path: Path) -> Path:
    """*path* with the ``.npz`` suffix ``np.savez`` would write to."""
    if path.name.endswith(".npz"):
        return path
    return path.with_name(path.name + ".npz")


def invert_follow_edges(
    edges: Iterable[tuple[UserId, UserId]],
    influencer_limit: int | None = None,
    edge_weight: Callable[[UserId, UserId], float] | None = None,
    include_source: Callable[[UserId], bool] | None = None,
) -> dict[UserId, list[UserId]]:
    """Invert ``(A, B)`` follow edges into ``B -> sorted distinct A's``.

    The bulk-load front half of S: group by A, apply the paper's per-user
    influencer cap, restrict to a partition's A's, then invert to the
    B-keyed layout with each follower list sorted.

    Args:
        edges: iterable of ``(A, B)`` pairs; duplicates are collapsed.
        influencer_limit: if given, each A keeps only its
            ``influencer_limit`` highest-weight B's before inversion.
        edge_weight: scoring function for the influencer cap; defaults to
            uniform weights, which makes truncation arbitrary-but-
            deterministic (lowest B ids win ties).
        include_source: partition predicate — only A's for which it
            returns True are loaded (``None`` keeps everyone).
    """
    if influencer_limit is not None:
        require_positive(influencer_limit, "influencer_limit")

    followings: dict[UserId, set[UserId]] = {}
    for a, b in edges:
        if include_source is not None and not include_source(a):
            continue
        followings.setdefault(a, set()).add(b)

    inverse: dict[UserId, list[UserId]] = {}
    for a, b_set in followings.items():
        kept: Iterable[UserId] = b_set
        if influencer_limit is not None and len(b_set) > influencer_limit:
            if edge_weight is None:
                kept = sorted(b_set)[:influencer_limit]
            else:
                kept = sorted(
                    b_set, key=lambda b: (-edge_weight(a, b), b)
                )[:influencer_limit]
        for b in kept:
            inverse.setdefault(b, []).append(a)
    for a_list in inverse.values():
        a_list.sort()
    return inverse


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

    #: Default overlay size (edges) that triggers an automatic compact.
    DEFAULT_COMPACT_THRESHOLD = 4096

    def __init__(self, followers: Mapping[UserId, Sequence[UserId]]) -> None:
        """Pack an already-inverted ``B -> sorted distinct A's`` mapping.

        Prefer :meth:`from_follow_edges`, which also applies the influencer
        cap and partition predicate.
        """
        keys, offsets, arena = pack_rows(followers)
        self._arena = arena
        self._offsets = offsets
        #: Python-int row bounds for scalar lookups (a ``tolist`` upfront is
        #: far cheaper than boxing two numpy scalars per followers_of call).
        self._bounds: list[int] = offsets.tolist()
        self._rows: dict[UserId, int] = {b: i for i, b in enumerate(keys)}
        # Overlay state for the append-and-compact update path.
        self._pending: dict[UserId, set[UserId]] = {}
        self._pending_edges = 0
        self._merged_cache: dict[UserId, np.ndarray] = {}
        #: Overlay size (edges) that triggers an automatic :meth:`compact`.
        self.compact_threshold = self.DEFAULT_COMPACT_THRESHOLD

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

        See :func:`invert_follow_edges` for the argument semantics.
        """
        return cls(
            invert_follow_edges(edges, influencer_limit, edge_weight, include_source)
        )

    # ------------------------------------------------------------------
    # Arena snapshots (near-instant periodic reloads)
    # ------------------------------------------------------------------

    def save_npz(self, path: str | Path) -> None:
        """Serialize ``(keys, offsets, arena)`` to an ``.npz`` snapshot.

        The production S is "loaded into the system periodically"; dumping
        the packed arena directly means the next load is three array reads
        instead of re-inverting (and re-sorting) every follow edge.  Any
        pending appended edges are compacted in first, so the snapshot is
        always pure-arena.  Uncompressed on purpose — load speed is the
        whole point, and int64 id columns barely compress anyway.
        """
        self.compact()
        keys = np.fromiter(self._rows, dtype=np.int64, count=len(self._rows))
        # np.savez appends ".npz" to suffixless paths on write; normalize
        # here so save_npz(p) / from_snapshot(p) round-trip on the same p.
        np.savez(
            _with_npz_suffix(Path(path)),
            keys=keys,
            offsets=self._offsets,
            arena=self._arena,
        )

    @classmethod
    def from_snapshot(cls, path: str | Path) -> "StaticFollowerIndex":
        """Load an index directly from a :meth:`save_npz` arena snapshot.

        The arrays are adopted as-is (no inversion, no sorting, no
        per-row packing), so reload cost is dominated by the ``.npz`` read
        itself.  Round-trips are exact: the loaded index serves identical
        queries to the one that was saved.
        """
        path = Path(path)
        if not path.exists():
            path = _with_npz_suffix(path)
        with np.load(path) as data:
            keys = data["keys"]
            offsets = data["offsets"].astype(np.int64, copy=False)
            arena = data["arena"].astype(np.int64, copy=False)
        index = cls.__new__(cls)
        index._arena = arena
        index._offsets = offsets
        index._bounds = offsets.tolist()
        index._rows = {b: i for i, b in enumerate(keys.tolist())}
        index._pending = {}
        index._pending_edges = 0
        index._merged_cache = {}
        index.compact_threshold = cls.DEFAULT_COMPACT_THRESHOLD
        return index

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
        rows: dict[UserId, Sequence[UserId]] = {}
        for b, row in self._rows.items():
            rows[b] = self._merged(b, row)
        for b in self._pending:
            if b not in rows:
                rows[b] = sorted(self._pending[b])
        keys, offsets, arena = pack_rows(rows)
        self._arena = arena
        self._offsets = offsets
        self._bounds = offsets.tolist()
        self._rows = {b: i for i, b in enumerate(keys)}
        self._pending = {}
        self._pending_edges = 0
        self._merged_cache = {}

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
