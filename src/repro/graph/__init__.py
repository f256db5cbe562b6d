"""Graph substrates: the S and D structures from the paper plus kernels.

The production system keeps two in-memory structures per partition:

* :class:`~repro.graph.static_index.StaticFollowerIndex` — the paper's **S**:
  for each followed account ``B``, the sorted list of accounts ``A`` that
  follow it.  Static, bulk loaded from an offline snapshot, pruned by
  per-user influencer limits.
* :class:`~repro.graph.dynamic_index.DynamicEdgeIndex` — the paper's **D**:
  for each target account ``C``, the recent ``B -> C`` edges with creation
  timestamps, pruned by time window and size cap.

The sorted-list intersection kernels in :mod:`repro.graph.intersect` are the
inner loop of motif detection: the paper notes that keeping S's adjacency
lists sorted lets intersections "be implemented efficiently using well-known
algorithms".
"""

from repro.graph.ids import Edge, TimestampedEdge, UserId
from repro.graph.intersect import (
    intersect_galloping,
    intersect_hash,
    intersect_merge,
    intersect_many,
    intersect_sorted,
    k_overlap_arrays,
    k_overlap_heap,
    k_overlap_scancount,
)
from repro.graph.static_index import StaticFollowerIndex
from repro.graph.dynamic_index import DynamicEdgeIndex, FreshEdge
from repro.graph.csr import CsrGraph
from repro.graph.snapshot import GraphSnapshot, build_follower_snapshot

__all__ = [
    "Edge",
    "TimestampedEdge",
    "UserId",
    "intersect_galloping",
    "intersect_hash",
    "intersect_merge",
    "intersect_many",
    "intersect_sorted",
    "k_overlap_arrays",
    "k_overlap_heap",
    "k_overlap_scancount",
    "StaticFollowerIndex",
    "DynamicEdgeIndex",
    "FreshEdge",
    "CsrGraph",
    "GraphSnapshot",
    "build_follower_snapshot",
]
