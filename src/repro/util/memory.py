"""Memory accounting and back-of-the-envelope extrapolation.

The paper rules out the per-A two-hop Bloom-filter design with "a rough
calculation"; this module provides the machinery to make that calculation
concrete — measured bytes for the structures we actually build, plus
extrapolation from laptop-scale synthetic graphs to Twitter scale
(O(10^8) vertices, O(10^10) edges).
"""

from __future__ import annotations

from dataclasses import dataclass, field


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with binary units (KiB / MiB / GiB / TiB / PiB)."""
    if num_bytes < 0:
        return "-" + format_bytes(-num_bytes)
    units = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"]
    value = float(num_bytes)
    for unit in units:
        if value < 1024.0 or unit == units[-1]:
            if unit == "B":
                return f"{value:.0f}{unit}"
            return f"{value:.2f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


@dataclass
class MemoryEstimate:
    """A measured memory figure plus the assumptions used to extrapolate it.

    Attributes:
        measured_bytes: bytes actually observed at the measured scale.
        measured_scale: the driving quantity at measurement time
            (e.g. number of users).
        notes: free-form assumption log, one entry per adjustment.
    """

    measured_bytes: float
    measured_scale: float
    notes: list[str] = field(default_factory=list)

    def extrapolate(self, target_scale: float) -> float:
        """Linearly extrapolate the measurement to *target_scale*.

        Linear scaling is the conservative choice for per-user structures
        (each additional user brings its own adjacency/Bloom payload).
        """
        if self.measured_scale <= 0:
            raise ValueError("measured_scale must be positive to extrapolate")
        factor = target_scale / self.measured_scale
        return self.measured_bytes * factor

    def describe(self, target_scale: float) -> str:
        """Human-readable extrapolation line for reports."""
        projected = self.extrapolate(target_scale)
        return (
            f"{format_bytes(self.measured_bytes)} at scale "
            f"{self.measured_scale:g} -> {format_bytes(projected)} at scale "
            f"{target_scale:g}"
        )
