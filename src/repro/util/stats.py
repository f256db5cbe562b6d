"""Streaming statistics used by the metrics layer and the benchmarks.

``OnlineStats`` implements Welford's algorithm for numerically-stable running
mean/variance.  ``PercentileTracker`` keeps an exact sample buffer up to a
bound and falls back to reservoir sampling beyond it, which is accurate enough
for the latency distributions reported in the paper (median / p99 over tens of
thousands of events) while keeping memory constant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.util.validation import require, require_positive


def percentile(sorted_values: list[float], q: float) -> float:
    """Return the *q*-th percentile (0..100) of an already-sorted list.

    Uses linear interpolation between closest ranks, matching
    ``numpy.percentile``'s default behaviour, so tests can cross-check
    against numpy on small inputs.
    """
    require(0.0 <= q <= 100.0, f"percentile q must be in [0, 100], got {q}")
    require(len(sorted_values) > 0, "percentile of empty data is undefined")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return sorted_values[lower]
    weight = rank - lower
    low, high = sorted_values[lower], sorted_values[upper]
    # Rounding (e.g. of subnormals) can step outside the two ranks: clamp.
    return min(max(low * (1.0 - weight) + high * weight, low), high)


class OnlineStats:
    """Running count / mean / variance / min / max via Welford's algorithm."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance (0.0 until two observations arrive)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new ``OnlineStats`` combining *self* and *other*.

        Uses the parallel-variance (Chan et al.) merge so partition-local
        statistics can be gathered by a broker without losing precision.
        """
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other.mean - self.mean
        merged.mean = self.mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged


class PercentileTracker:
    """Collect observations and answer percentile queries.

    Keeps every observation up to ``max_samples``; beyond that it switches to
    reservoir sampling (Vitter's algorithm R) so memory stays bounded while
    quantile estimates remain unbiased.
    """

    def __init__(self, max_samples: int = 100_000, seed: int = 0) -> None:
        require_positive(max_samples, "max_samples")
        self._max_samples = max_samples
        self._samples: list[float] = []
        self._seen = 0
        self._rng = random.Random(seed)
        self.stats = OnlineStats()

    def add(self, value: float) -> None:
        """Record one observation."""
        self._seen += 1
        self.stats.add(value)
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
            return
        slot = self._rng.randrange(self._seen)
        if slot < self._max_samples:
            self._samples[slot] = value

    def __len__(self) -> int:
        return self._seen

    @property
    def is_exact(self) -> bool:
        """True while no observation has been discarded."""
        return self._seen <= self._max_samples

    def percentile(self, q: float) -> float:
        """Return the *q*-th percentile (0..100) of observations so far."""
        require(self._seen > 0, "no observations recorded")
        return percentile(sorted(self._samples), q)

    def median(self) -> float:
        """Convenience alias for the 50th percentile."""
        return self.percentile(50.0)

    def snapshot(self) -> dict[str, float]:
        """Summary dict: count, mean, min, max, p50, p90, p99."""
        if self._seen == 0:
            return {"count": 0}
        ordered = sorted(self._samples)
        return {
            "count": float(self._seen),
            "mean": self.stats.mean,
            "min": self.stats.minimum,
            "max": self.stats.maximum,
            "p50": percentile(ordered, 50.0),
            "p90": percentile(ordered, 90.0),
            "p99": percentile(ordered, 99.0),
        }


@dataclass
class Description:
    """Plain summary of a data set, as returned by :func:`describe`."""

    count: int
    mean: float
    stddev: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float
    extras: dict[str, float] = field(default_factory=dict)


def describe(values: list[float]) -> Description:
    """Return a :class:`Description` of *values* (must be non-empty)."""
    require(len(values) > 0, "describe() of empty data is undefined")
    ordered = sorted(values)
    stats = OnlineStats()
    for value in values:
        stats.add(value)
    return Description(
        count=stats.count,
        mean=stats.mean,
        stddev=stats.stddev,
        minimum=ordered[0],
        p50=percentile(ordered, 50.0),
        p90=percentile(ordered, 90.0),
        p99=percentile(ordered, 99.0),
        maximum=ordered[-1],
    )
