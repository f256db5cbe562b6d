"""Non-waking-hours suppression.

Push notifications are worthless (and annoying) at 4 am.  Production knows
each user's activity pattern; we substitute a deterministic per-user
timezone assignment — user ids hash uniformly over UTC offsets, weighted
toward the offsets where Twitter's 2014 user base actually lived would be
overkill, uniform is fine for funnel shape — and a fixed waking interval
in local time.
"""

from __future__ import annotations

import numpy as np

from repro.core.recommendation import CandidateColumns, Recommendation
from repro.util.hashing import MASK64, splitmix64, splitmix64_array
from repro.util.validation import require


class WakingHoursFilter:
    """Allow pushes only during the recipient's local waking hours."""

    def __init__(
        self,
        waking_start_hour: int = 8,
        waking_end_hour: int = 23,
        timezone_salt: int = 0,
        home_offset_hours: int | None = None,
        offset_spread_hours: int = 3,
    ) -> None:
        """Create the filter.

        Args:
            waking_start_hour: local hour (0-23) pushes become allowed.
            waking_end_hour: local hour pushes stop (exclusive); must be
                strictly greater than ``waking_start_hour``.
            timezone_salt: varies the deterministic user -> timezone map
                between experiments.
            home_offset_hours: when given, user timezones concentrate
                around this UTC offset (a geographically-clustered user
                base, like Twitter's 2014 US skew) instead of spreading
                uniformly over all 24 zones.
            offset_spread_hours: half-width of the concentration around
                ``home_offset_hours``.
        """
        require(0 <= waking_start_hour < 24, "waking_start_hour must be 0-23")
        require(0 < waking_end_hour <= 24, "waking_end_hour must be 1-24")
        require(
            waking_start_hour < waking_end_hour,
            "waking_start_hour must precede waking_end_hour",
        )
        require(offset_spread_hours >= 0, "offset_spread_hours must be >= 0")
        self.waking_start_hour = waking_start_hour
        self.waking_end_hour = waking_end_hour
        self.home_offset_hours = home_offset_hours
        self.offset_spread_hours = offset_spread_hours
        self._salt = timezone_salt

    @property
    def name(self) -> str:
        """Funnel-stage label."""
        return "waking_hours"

    def timezone_offset_hours(self, user: int) -> int:
        """Deterministic UTC offset for *user*.

        Uniform over ``[-11, 12]`` by default; concentrated around
        ``home_offset_hours`` (± spread) when configured.
        """
        mixed = splitmix64(user * 2 + 1 + self._salt)
        if self.home_offset_hours is None:
            return mixed % 24 - 11
        width = 2 * self.offset_spread_hours + 1
        return self.home_offset_hours + mixed % width - self.offset_spread_hours

    def local_hour(self, user: int, now: float) -> float:
        """The user's local hour-of-day for UTC timestamp *now* (seconds)."""
        utc_hours = (now / 3600.0) % 24.0
        return (utc_hours + self.timezone_offset_hours(user)) % 24.0

    def is_awake(self, user: int, now: float) -> bool:
        """True iff *now* falls inside the user's waking interval."""
        hour = self.local_hour(user, now)
        return self.waking_start_hour <= hour < self.waking_end_hour

    def allow(self, rec: Recommendation, now: float) -> bool:
        """Suppress when the recipient is in their non-waking hours."""
        return self.is_awake(rec.recipient, now)

    def allow_mask(self, columns: CandidateColumns, now: float) -> np.ndarray:
        """Batched :meth:`allow`: the whole stage as a few numpy passes.

        The stage is stateless and a pure function of (recipient, now), so
        it vectorizes completely: one splitmix64 mix over the recipient
        column, one modular local-hour computation, one interval test.
        Identical decisions to per-candidate calls (same integer mix, same
        float arithmetic, element for element).
        """
        mixed = splitmix64_array(
            columns.recipients.astype(np.uint64)
            * np.uint64(2)
            + np.uint64((1 + self._salt) & MASK64)
        )
        if self.home_offset_hours is None:
            offsets = (mixed % np.uint64(24)).astype(np.int64) - 11
        else:
            width = 2 * self.offset_spread_hours + 1
            offsets = (
                self.home_offset_hours
                + (mixed % np.uint64(width)).astype(np.int64)
                - self.offset_spread_hours
            )
        utc_hours = (now / 3600.0) % 24.0
        local_hours = (utc_hours + offsets) % 24.0
        return (self.waking_start_hour <= local_hours) & (
            local_hours < self.waking_end_hour
        )
