"""Fatigue control: a per-user cap on pushes per rolling window.

Even perfectly relevant notifications drive users to disable pushes when
there are too many of them; production "controls for fatigue".  We model
the standard mechanism: at most ``max_per_window`` deliveries per user per
rolling ``window`` seconds.

The per-user histories live in an open-addressing numpy table keyed by
recipient, holding a fixed ``max_per_window``-wide timestamp ring per slot
(the rolling window never needs more entries than the cap).  ``allow_mask``
charges a whole batch with a handful of vectorized passes; dead users are
evicted by horizon-based compaction when the table needs room.  Assumes a
non-decreasing ``now`` sequence (true on the streaming path; see
:mod:`repro.delivery`).
"""

from __future__ import annotations

import numpy as np

from repro.core.recommendation import CandidateColumns, Recommendation
from repro.delivery.pairtable import Int64KeyTable
from repro.util.validation import require_positive


def _history_columns(max_per_window: int) -> dict:
    """Table value columns: a ``max_per_window``-wide timestamp ring per user."""
    return {
        "times": (np.float64, max_per_window),
        "head": (np.int32, 0),
        "count": (np.int32, 0),
    }


class FatigueFilter:
    """Rolling-window rate limit per recipient."""

    def __init__(
        self,
        max_per_window: int = 2,
        window: float = 86_400.0,
    ) -> None:
        """Create the filter.

        Args:
            max_per_window: deliveries allowed per user per window.
            window: rolling window length in seconds (default one day).
        """
        require_positive(max_per_window, "max_per_window")
        require_positive(window, "window")
        self.max_per_window = max_per_window
        self.window = window
        self._table = Int64KeyTable(_history_columns(max_per_window))

    @property
    def name(self) -> str:
        """Funnel-stage label."""
        return "fatigue"

    def allow(self, rec: Recommendation, now: float) -> bool:
        """True iff the recipient is under their cap; counts the delivery."""
        table = self._table
        cap = self.max_per_window
        cutoff = now - self.window
        slot = table.find(rec.recipient)
        if slot < 0:
            table.reserve(1, keep=lambda: self._live_slots(cutoff))
            slot, _ = table.upsert(rec.recipient)
        columns = table.columns
        times = columns["times"]
        head = int(columns["head"][slot])
        count = int(columns["count"][slot])
        # Prune from the oldest end, stopping at the first live entry —
        # the exact ``popleft`` sequence of a per-user deque history.
        while count and times[slot, head] < cutoff:
            head = (head + 1) % cap
            count -= 1
        if count >= cap:
            columns["head"][slot] = head
            columns["count"][slot] = count
            return False
        times[slot, (head + count) % cap] = now
        columns["head"][slot] = head
        columns["count"][slot] = count + 1
        return True

    def allow_mask(self, columns: CandidateColumns, now: float) -> np.ndarray:
        """Batched :meth:`allow`: per-candidate decisions in order.

        All candidates in one call share ``now``, so per recipient the
        sequential semantics collapse to: prune once, then admit the
        first ``cap - live`` occurrences and reject the rest — computed
        fully vectorized (one ``np.unique`` over recipients, one bulk
        probe, ring updates as a few masked writes).
        """
        recipients = columns.recipients
        n = len(recipients)
        out = np.empty(n, dtype=bool)
        if n == 0:
            return out
        distinct, inverse, occurrences = np.unique(
            recipients, return_inverse=True, return_counts=True
        )
        table = self._table
        cap = self.max_per_window
        cutoff = now - self.window
        keys = distinct.astype(np.uint64)
        slots = table.lookup(keys)
        found = slots >= 0
        alive = np.zeros(len(distinct), dtype=np.int64)
        table_columns = table.columns
        if found.any():
            found_slots = slots[found]
            times = table_columns["times"]
            head = table_columns["head"][found_slots].astype(np.int64)
            count = table_columns["count"][found_slots].astype(np.int64)
            # Leading-expired prune, vectorized over the (tiny) ring width.
            pruned = np.zeros(len(found_slots), dtype=np.int64)
            leading = np.ones(len(found_slots), dtype=bool)
            for j in range(cap):
                stamp = times[found_slots, (head + j) % cap]
                expired = leading & (j < count) & (stamp < cutoff)
                pruned += expired
                leading = expired
            head = (head + pruned) % cap
            count = count - pruned
            alive[found] = count
        budget = cap - alive
        granted = np.minimum(budget, occurrences)
        # Row i passes iff it is among the first `granted` occurrences of
        # its recipient: rank rows within each recipient in arrival order.
        order = np.argsort(inverse, kind="stable")
        grouped = inverse[order]
        starts = np.flatnonzero(
            np.r_[True, grouped[1:] != grouped[:-1]]
        ) if n else np.empty(0, dtype=np.int64)
        rank = np.arange(n) - np.repeat(starts, occurrences)
        out[order] = rank < granted[grouped]
        if found.any():
            # Charge the admitted deliveries: append `now` x granted.
            grants_found = granted[found]
            times = table_columns["times"]
            for j in range(int(grants_found.max(initial=0))):
                charged = grants_found > j
                positions = (head[charged] + count[charged] + j) % cap
                times[found_slots[charged], positions] = now
            table_columns["head"][found_slots] = head
            table_columns["count"][found_slots] = count + grants_found
        missing = ~found
        num_missing = int(missing.sum())
        if num_missing:
            table.reserve(num_missing, keep=lambda: self._live_slots(cutoff))
            new_slots = table.insert(keys[missing])
            table_columns = table.columns  # reserve may have reallocated
            grants_missing = granted[missing]
            for j in range(int(grants_missing.max(initial=0))):
                charged = grants_missing > j
                table_columns["times"][new_slots[charged], j] = now
            table_columns["count"][new_slots] = grants_missing
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The per-user histories as owned arrays (for incremental
        snapshots)."""
        return self._table.state_arrays()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace the histories with a :meth:`state_arrays` payload."""
        self._table = Int64KeyTable(_history_columns(self.max_per_window))
        self._table.load_state_arrays(arrays)

    def _live_slots(self, cutoff: float) -> np.ndarray:
        """Compaction keep-mask: slots with any charge still in window."""
        table = self._table
        cap = self.max_per_window
        times = table.columns["times"]
        head = table.columns["head"].astype(np.int64)
        count = table.columns["count"].astype(np.int64)
        rows = np.arange(table.capacity)
        live = np.zeros(table.capacity, dtype=bool)
        for j in range(cap):
            stamp = times[rows, (head + j) % cap]
            live |= (j < count) & (stamp >= cutoff)
        return live

    def sent_in_window(self, user: int, now: float) -> int:
        """Deliveries charged to *user* within the current window."""
        cutoff = now - self.window
        slot = self._table.find(user)
        if slot < 0:
            return 0
        columns = self._table.columns
        cap = self.max_per_window
        head = int(columns["head"][slot])
        count = int(columns["count"][slot])
        times = columns["times"]
        return sum(
            1
            for j in range(count)
            if times[slot, (head + j) % cap] >= cutoff
        )
