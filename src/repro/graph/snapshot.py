"""Offline graph snapshots: the system's bulk-load input.

Production computes the ``A -> B`` edges offline ("this allows us to take
advantage of rich features to prune the graph") and loads them into the
serving system periodically.  A :class:`GraphSnapshot` models that artifact:
the forward follow adjacency plus optional per-edge weights (our stand-in
for the proprietary ranking features), with save/load so experiments can
reuse generated graphs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.graph.csr import CsrGraph
from repro.graph.ids import UserId
from repro.graph.static_index import StaticFollowerIndex


class GraphSnapshot:
    """A frozen follow graph: CSR forward adjacency + optional edge weights."""

    def __init__(
        self,
        graph: CsrGraph,
        edge_weights: dict[tuple[UserId, UserId], float] | None = None,
    ) -> None:
        """Wrap a built CSR graph.

        Args:
            graph: forward adjacency — ``neighbors(a)`` are the accounts
                *a* follows.
            edge_weights: optional affinity scores used by the influencer
                cap; missing edges default to weight 0.
        """
        self.graph = graph
        self.edge_weights = edge_weights or {}

    # ------------------------------------------------------------------
    # Construction / IO
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[UserId, UserId]],
        num_nodes: int | None = None,
        edge_weights: dict[tuple[UserId, UserId], float] | None = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from ``(A, B)`` follow pairs."""
        return cls(CsrGraph.from_edges(edges, num_nodes), edge_weights)

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int | None = None,
    ) -> "GraphSnapshot":
        """Build a snapshot from aligned edge columns (no boxed pairs).

        The chunked generator's entry point; weights are not supported on
        this path (the multi-million-user graphs it exists for never
        score edges).
        """
        return cls(CsrGraph.from_arrays(src, dst, num_nodes))

    def save(self, path: str | Path) -> None:
        """Persist to an ``.npz`` file (CSR arrays + packed weights)."""
        path = Path(path)
        weight_keys = np.array(
            [[a, b] for (a, b) in self.edge_weights], dtype=np.int64
        ).reshape(-1, 2)
        weight_values = np.array(list(self.edge_weights.values()), dtype=np.float64)
        np.savez_compressed(
            path,
            indptr=self.graph._indptr,
            indices=self.graph._indices,
            weight_keys=weight_keys,
            weight_values=weight_values,
        )

    @classmethod
    def load(cls, path: str | Path) -> "GraphSnapshot":
        """Load a snapshot previously written by :meth:`save`."""
        with np.load(Path(path)) as data:
            graph = CsrGraph(data["indptr"], data["indices"])
            keys = data["weight_keys"]
            values = data["weight_values"]
        weights = {
            (int(keys[i, 0]), int(keys[i, 1])): float(values[i])
            for i in range(len(values))
        }
        return cls(graph, weights)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    @property
    def num_users(self) -> int:
        """Vertex count."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Follow-edge count."""
        return self.graph.num_edges

    def followings_of(self, a: UserId) -> np.ndarray:
        """Sorted accounts that *a* follows."""
        return self.graph.neighbors(a)

    def follow_edges(self) -> Iterator[tuple[UserId, UserId]]:
        """Iterate all ``(A, B)`` pairs."""
        return self.graph.edges()

    def weight_of(self, a: UserId, b: UserId) -> float:
        """Affinity weight of edge ``a -> b`` (0.0 when unscored)."""
        return self.edge_weights.get((a, b), 0.0)


def build_follower_snapshot(
    snapshot: GraphSnapshot,
    influencer_limit: int | None = None,
    include_source: Callable[[UserId], bool] | None = None,
) -> StaticFollowerIndex:
    """One S over the whole snapshot, or over the A's *include_source*
    accepts (asked once per user); see
    :meth:`StaticFollowerIndex.load_shards`."""
    n = snapshot.num_users
    if include_source is None:
        return StaticFollowerIndex.load_shards(
            snapshot, np.zeros(n, np.int64), 1, influencer_limit
        )[0]
    excluded = np.array([not include_source(a) for a in range(n)], dtype=np.int64)
    return StaticFollowerIndex.load_shards(snapshot, excluded, 2, influencer_limit)[0]
