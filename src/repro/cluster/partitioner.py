"""Partitioning of the A's across partition servers.

The paper partitions by the *source* vertices of S ("each partition holds a
disjoint set of source vertices for the S data structure"), so every
adjacency-list intersection is local to one partition.  The same B may
appear in many partitions; that is by design.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.graph.ids import UserId
from repro.util.hashing import shard_ids, splitmix64
from repro.util.validation import require_positive


class Partitioner(Protocol):
    """Assigns each A to exactly one partition."""

    num_partitions: int

    def partition_of(self, a: UserId) -> int:
        """The partition index in ``[0, num_partitions)`` owning *a*."""
        ...

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """:meth:`partition_of` over an id column, as ``int64``."""
        ...


class HashPartitioner:
    """Stable hash partitioning (production default).

    Uses SplitMix64 rather than Python's ``hash`` so the assignment is
    identical across processes and Python versions — replicas and offline
    loaders must agree on ownership.
    """

    def __init__(self, num_partitions: int) -> None:
        require_positive(num_partitions, "num_partitions")
        self.num_partitions = num_partitions

    def partition_of(self, a: UserId) -> int:
        """Owner partition of *a*."""
        return splitmix64(a) % self.num_partitions

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Owner partition of every id in *ids*."""
        return shard_ids(ids, self.num_partitions)


class ModuloPartitioner:
    """``a % P`` partitioning — transparent, for tests and worked examples."""

    def __init__(self, num_partitions: int) -> None:
        require_positive(num_partitions, "num_partitions")
        self.num_partitions = num_partitions

    def partition_of(self, a: UserId) -> int:
        """Owner partition of *a*."""
        return a % self.num_partitions

    def owners(self, ids: np.ndarray) -> np.ndarray:
        """Owner partition of every id in *ids*."""
        return ids % self.num_partitions
