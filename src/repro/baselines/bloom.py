"""Bloom filters, plain and counting.

Built from scratch (no external dependency) for the two-hop-neighborhood
baseline the paper rules out.  Double hashing (Kirsch-Mitzenmacher) derives
the k probe positions from two 64-bit mixes of the key, which keeps
membership checks cheap and the layout easy to size analytically.
"""

from __future__ import annotations

import math

from repro.util.hashing import splitmix64
from repro.util.validation import require, require_positive, require_probability


def optimal_num_bits(capacity: int, fp_rate: float) -> int:
    """Bits needed for *capacity* keys at the target false-positive rate."""
    require_positive(capacity, "capacity")
    require_probability(fp_rate, "fp_rate")
    require(0.0 < fp_rate < 1.0, "fp_rate must be strictly inside (0, 1)")
    bits = -capacity * math.log(fp_rate) / (math.log(2.0) ** 2)
    return max(8, int(math.ceil(bits)))


def optimal_num_hashes(num_bits: int, capacity: int) -> int:
    """Probe count minimising the false-positive rate for the geometry."""
    return max(1, int(round(num_bits / capacity * math.log(2.0))))


class BloomFilter:
    """A standard Bloom filter over non-negative integer keys."""

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        """Size the filter for *capacity* keys at *fp_rate* false positives."""
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.num_bits = optimal_num_bits(capacity, fp_rate)
        self.num_hashes = optimal_num_hashes(self.num_bits, capacity)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self._count = 0

    def _positions(self, key: int):
        h1 = splitmix64(key)
        h2 = splitmix64(h1) | 1  # odd stride: full period over the table
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: int) -> None:
        """Insert *key* (idempotent for membership purposes)."""
        for position in self._positions(key):
            self._bits[position >> 3] |= 1 << (position & 7)
        self._count += 1

    def __contains__(self, key: int) -> bool:
        for position in self._positions(key):
            if not self._bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def __len__(self) -> int:
        """Number of add() calls (an upper bound on distinct keys)."""
        return self._count

    def memory_bytes(self) -> int:
        """Size of the bit array (the dominating cost at scale)."""
        return len(self._bits)

    def expected_fp_rate(self) -> float:
        """Theoretical false-positive rate at the current fill level."""
        if self._count == 0:
            return 0.0
        exponent = -self.num_hashes * self._count / self.num_bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes


class CountingBloomFilter:
    """A counting Bloom filter: supports threshold queries, not just membership.

    The two-hop baseline needs "has this C been reached via at least k
    distinct B's?"  A plain Bloom cannot count, so each slot holds a small
    saturating counter (one byte).  That multiplies the memory by 8x over a
    plain Bloom — which is precisely the arithmetic that makes the paper's
    "rough calculation" come out impractical.
    """

    #: Saturation limit of the one-byte slots.
    MAX_COUNT = 255

    def __init__(self, capacity: int, fp_rate: float = 0.01) -> None:
        """Size the counter array as a Bloom of the same geometry."""
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.num_slots = optimal_num_bits(capacity, fp_rate)
        self.num_hashes = optimal_num_hashes(self.num_slots, capacity)
        self._slots = bytearray(self.num_slots)
        self._count = 0

    def _positions(self, key: int):
        h1 = splitmix64(key)
        h2 = splitmix64(h1) | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_slots

    def increment(self, key: int) -> int:
        """Add one occurrence of *key*; returns the new estimated count."""
        estimate = self.MAX_COUNT
        for position in self._positions(key):
            if self._slots[position] < self.MAX_COUNT:
                self._slots[position] += 1
            estimate = min(estimate, self._slots[position])
        self._count += 1
        return estimate

    def estimate(self, key: int) -> int:
        """Estimated occurrence count of *key* (never an underestimate)."""
        return min(self._slots[position] for position in self._positions(key))

    def __len__(self) -> int:
        """Total increments performed."""
        return self._count

    def memory_bytes(self) -> int:
        """Size of the counter array."""
        return len(self._slots)
