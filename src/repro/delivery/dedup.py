"""Duplicate elimination: the first and biggest funnel stage.

A hot C keeps completing diamonds as more B's pile on, so the same
(recipient, candidate) pair arrives over and over in the raw stream.  Each
pair is allowed through once per ``window`` seconds.

The seen-map is an open-addressing numpy pair table
(:class:`~repro.delivery.pairtable.Int64KeyTable`): the pair packs into one
``uint64`` key, ``allow_mask`` probes the whole batch with a few vectorized
passes, and expired pairs are evicted by horizon-based compaction when the
table needs room (daily-horizon residency is a few tens of bytes per live
pair).  Requires ids below 2**32 and a non-decreasing ``now`` sequence
(both true on the streaming path; see :mod:`repro.delivery`).
"""

from __future__ import annotations

import numpy as np

from repro.core.recommendation import CandidateColumns, Recommendation
from repro.delivery.pairtable import (
    Int64KeyTable,
    pack_pair,
    pack_pairs,
    unpack_pairs,
)
from repro.util.validation import require_positive


class DedupFilter:
    """Suppress repeats of (recipient, candidate) within a time window."""

    def __init__(self, window: float = 86_400.0) -> None:
        """Create the filter.

        Args:
            window: seconds during which a repeated pair is suppressed
                (default one day, matching the paper's daily accounting).
        """
        require_positive(window, "window")
        self.window = window
        self._table = Int64KeyTable({"time": (np.float64, 0)})

    @property
    def name(self) -> str:
        """Funnel-stage label."""
        return "dedup"

    def allow(self, rec: Recommendation, now: float) -> bool:
        """True iff this pair has not been let through within the window."""
        table = self._table
        key = pack_pair(rec.recipient, rec.candidate)
        slot = table.find(key)
        if slot >= 0:
            if now - table.columns["time"][slot] < self.window:
                return False
        else:
            cutoff = now - self.window
            table.reserve(1, keep=lambda: table.columns["time"] >= cutoff)
            slot, _ = table.upsert(key)
        table.columns["time"][slot] = now
        return True

    def allow_mask(self, columns: CandidateColumns, now: float) -> np.ndarray:
        """Batched :meth:`allow`: one decision per candidate, state updated
        in candidate order — exactly the sequence of per-candidate calls.

        The whole batch vectorizes: within one call every occurrence of a
        pair after the first is a duplicate of that first occurrence (it
        was just let through, or it was already blocked), so the stage
        reduces to one ``np.unique`` plus one bulk table probe over the
        distinct pairs — no per-candidate Python at all.
        """
        recipients = columns.recipients
        n = len(recipients)
        keys = pack_pairs(recipients, columns.candidates)
        distinct, first_index = np.unique(keys, return_index=True)
        table = self._table
        slots = table.lookup(distinct)
        found = slots >= 0
        allowed = np.ones(len(distinct), dtype=bool)
        if found.any():
            last = table.columns["time"][slots[found]]
            allowed[found] = now - last >= self.window
        out = np.zeros(n, dtype=bool)
        out[first_index] = allowed
        refreshed = found & allowed
        if refreshed.any():
            table.columns["time"][slots[refreshed]] = now
        missing = ~found
        num_missing = int(missing.sum())
        if num_missing:
            cutoff = now - self.window
            table.reserve(
                num_missing, keep=lambda: table.columns["time"] >= cutoff
            )
            new_slots = table.insert(distinct[missing])
            table.columns["time"][new_slots] = now
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The seen-map as owned arrays (for incremental snapshots)."""
        return self._table.state_arrays()

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace the seen-map with a :meth:`state_arrays` payload."""
        self._table = Int64KeyTable({"time": (np.float64, 0)})
        self._table.load_state_arrays(arrays)

    def tracked_pairs(self) -> int:
        """Number of pairs currently remembered (memory accounting)."""
        return len(self._table)

    def last_sent_entries(self) -> dict[tuple[int, int], float]:
        """Snapshot of ``(recipient, candidate) -> last_sent`` (tests).

        Expired entries linger until the next compaction, so only the
        in-window subset is comparable against a reference model.
        """
        slots = self._table.filled_slots()
        recipients, candidates = unpack_pairs(self._table.keys_at(slots))
        times = self._table.columns["time"][slots]
        return {
            (int(r), int(c)): float(t)
            for r, c, t in zip(recipients, candidates, times)
        }
