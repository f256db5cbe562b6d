"""Plain-Python reference models of the stateful funnel stages.

The ``(recipient, candidate) -> last_sent`` dict and the per-user deque
histories are what the numpy tables in :mod:`repro.delivery` store in flat
columns; they live here as test oracles.  Scalar ``allow`` only: a batch is
by definition a loop over ``allow`` in candidate order (:func:`allow_each`),
which is exactly the property the tables' ``allow_mask`` is tested against.
"""

from collections import deque

from repro.core.recommendation import Recommendation


class ReferenceDedup:
    """Dict seen-map: a pair passes once per ``window`` seconds."""

    name = "dedup"

    def __init__(self, window: float = 86_400.0) -> None:
        self.window = window
        self.last_sent: dict[tuple[int, int], float] = {}

    def allow(self, rec: Recommendation, now: float) -> bool:
        key = rec.key()
        last = self.last_sent.get(key)
        if last is not None and now - last < self.window:
            return False
        self.last_sent[key] = now
        return True


class ReferenceFatigue:
    """Deque histories: at most ``max_per_window`` passes per user per
    rolling ``window`` seconds."""

    name = "fatigue"

    def __init__(self, max_per_window: int = 2, window: float = 86_400.0) -> None:
        self.max_per_window = max_per_window
        self.window = window
        self.sent: dict[int, deque[float]] = {}

    def allow(self, rec: Recommendation, now: float) -> bool:
        history = self.sent.setdefault(rec.recipient, deque())
        cutoff = now - self.window
        while history and history[0] < cutoff:
            history.popleft()
        if len(history) >= self.max_per_window:
            return False
        history.append(now)
        return True

    def sent_in_window(self, user: int, now: float) -> int:
        cutoff = now - self.window
        return sum(1 for t in self.sent.get(user, ()) if t >= cutoff)


def allow_each(model, pairs, now: float) -> list[bool]:
    """The batched form of a reference model: ``allow`` per (recipient,
    candidate) pair, in order."""
    return [
        model.allow(Recommendation(recipient=r, candidate=c, created_at=0.0), now)
        for r, c in pairs
    ]
