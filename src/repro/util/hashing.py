"""Shared integer-hashing primitives: splitmix64, scalar and columnar.

The same mix is used everywhere an id needs a uniform 64-bit scramble —
partitions, waking-hours timezones, delivery pair tables, Bloom probes —
so the scalar and vectorized call sites are guaranteed to agree bit for bit
(``uint64`` arithmetic wraps modulo 2**64, exactly the scalar masking).
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1

_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = 0xBF58476D1CE4E5B9
_SM64_MIX2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """One splitmix64 finalization round over a (python int) 64-bit value."""
    value = (value + _SM64_GAMMA) & MASK64
    value = ((value ^ (value >> 30)) * _SM64_MIX1) & MASK64
    value = ((value ^ (value >> 27)) * _SM64_MIX2) & MASK64
    return value ^ (value >> 31)


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over a ``uint64`` column.

    Produces the scalar version's mix bit for bit, element for element.
    """
    values = values + np.uint64(_SM64_GAMMA)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(_SM64_MIX1)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(_SM64_MIX2)
    return values ^ (values >> np.uint64(31))


def shard_ids(ids: np.ndarray, num_shards: int) -> np.ndarray:
    """Each id's owning shard: ``splitmix64(id) % num_shards``, as ``int64``
    (partitions, delivery shards and serving shards share this keying)."""
    return (
        splitmix64_array(ids.astype(np.uint64)) % np.uint64(num_shards)
    ).astype(np.int64)
