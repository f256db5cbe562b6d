"""Shared utilities: validation, statistics, timing, memory accounting.

These helpers are deliberately free of any domain knowledge so that every
other subpackage (graph substrates, cluster, simulator, delivery funnel) can
depend on them without creating import cycles.
"""

from repro.util.validation import (
    require,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)
from repro.util.stats import (
    OnlineStats,
    PercentileTracker,
    describe,
    percentile,
)
from repro.util.timer import Stopwatch, format_duration
from repro.util.memory import (
    format_bytes,
    MemoryEstimate,
)
from repro.util.rng import make_rng

__all__ = [
    "require",
    "require_non_negative",
    "require_positive",
    "require_probability",
    "require_type",
    "OnlineStats",
    "PercentileTracker",
    "describe",
    "percentile",
    "Stopwatch",
    "format_duration",
    "format_bytes",
    "MemoryEstimate",
    "make_rng",
]
