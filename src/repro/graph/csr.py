"""Compressed sparse row (CSR) adjacency for bulk full-graph operations.

The online path uses :class:`~repro.graph.static_index.StaticFollowerIndex`
(hash-of-sorted-arrays, cheap point lookups).  Offline consumers — the batch
ground-truth detector, the two-hop baseline, and the graph generators — sweep
whole graphs, where a numpy CSR layout is both smaller and much faster to
traverse.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.graph.ids import UserId
from repro.util.validation import require


class CsrGraph:
    """Immutable directed graph in CSR form (out-adjacency, sorted)."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Wrap prebuilt CSR arrays; prefer :meth:`from_edges`.

        Args:
            indptr: int64 array of length ``num_nodes + 1``.
            indices: int64 array of destination ids; the slice
                ``indices[indptr[v]:indptr[v + 1]]`` must be sorted.
        """
        require(indptr.ndim == 1 and indices.ndim == 1, "CSR arrays must be 1-D")
        require(len(indptr) >= 1, "indptr must have at least one entry")
        require(
            int(indptr[-1]) == len(indices),
            "indptr[-1] must equal len(indices)",
        )
        self._indptr = indptr
        self._indices = indices

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[UserId, UserId]],
        num_nodes: int | None = None,
    ) -> "CsrGraph":
        """Build from ``(src, dst)`` pairs; duplicates collapsed.

        Args:
            edges: directed edge pairs.
            num_nodes: total vertex count; inferred from the max id if
                omitted (isolated tail vertices then need it explicitly).
        """
        edge_list = list(edges)
        # Columns passed straight through: no local here may keep the
        # unsorted copies alive while from_arrays sorts them.
        return cls.from_arrays(
            np.fromiter((e[0] for e in edge_list), np.int64, len(edge_list)),
            np.fromiter((e[1] for e in edge_list), np.int64, len(edge_list)),
            num_nodes,
        )

    @classmethod
    def from_arrays(
        cls, src: np.ndarray, dst: np.ndarray, num_nodes: int | None = None
    ) -> "CsrGraph":
        """Build from aligned ``int64`` edge columns; duplicates collapsed.

        What :meth:`from_edges` builds through, on arrays the caller may
        already hold, so the chunked graph generator never boxes an edge
        list: lexsort by ``(src, dst)``, drop repeats, bincount the rows.
        """
        require(len(src) == len(dst), "src and dst must be aligned")
        if len(src) == 0:
            size = num_nodes if num_nodes is not None else 0
            return cls(np.zeros(size + 1, dtype=np.int64), np.empty(0, np.int64))
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        inferred = int(max(src.max(), dst.max())) + 1
        size = inferred if num_nodes is None else num_nodes
        require(size >= inferred, f"num_nodes={size} too small for ids up to {inferred - 1}")
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
        counts = np.bincount(src, minlength=size)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Vertex count (including isolated vertices)."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Directed edge count after dedup."""
        return len(self._indices)

    def neighbors(self, v: UserId) -> np.ndarray:
        """Sorted out-neighbors of *v* as a read-only array view."""
        self._check_node(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def out_degree(self, v: UserId) -> int:
        """Number of out-edges of *v*."""
        self._check_node(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex, as an int64 array."""
        return np.diff(self._indptr)

    def has_edge(self, src: UserId, dst: UserId) -> bool:
        """True iff the directed edge ``src -> dst`` exists."""
        row = self.neighbors(src)
        position = int(np.searchsorted(row, dst))
        return position < len(row) and int(row[position]) == dst

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate all ``(src, dst)`` pairs in sorted order."""
        for v in range(self.num_nodes):
            for dst in self.neighbors(v):
                yield v, int(dst)

    def transposed(self) -> "CsrGraph":
        """Return the graph with every edge reversed (in-adjacency view)."""
        return CsrGraph.from_arrays(
            self._indices,
            np.repeat(np.arange(self.num_nodes), self.out_degrees()),
            self.num_nodes,
        )

    def _check_node(self, v: UserId) -> None:
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"vertex {v} out of range [0, {self.num_nodes})")
