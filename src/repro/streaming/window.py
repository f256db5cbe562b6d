"""The flush window both ends of the streaming tier batch with.

The detection consumer windows *events* in front of the cluster and the
delivery coalescer windows *candidate batches* in front of the funnel;
the buffering, the two flush triggers and the live retune are the same
machinery, so it lives here once.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.sim.des import DiscreteEventSimulator
from repro.util.validation import require, require_non_negative

T = TypeVar("T")


class FlushWindow(Generic[T]):
    """Buffer, size trigger, ``max_wait`` timer, epoch guard, live retune.

    Arriving items are buffered with their arrival time and leave
    together, through the subclass's ``_flush(buffered, flushed_at)``,
    when either

    * their summed *weight* reaches ``batch_size`` (the arrival that
      fills the window flushes it, at its own arrival time), or
    * ``max_wait`` virtual seconds have passed since the first buffered
      item (a trickling stream is never stalled indefinitely).

    ``batch_size`` is only a size: at 1 every arrival fills its own
    window, so it flushes on arrival through the same path and no timer
    is ever armed.
    """

    def __init__(
        self, sim: DiscreteEventSimulator, batch_size: int, max_wait: float
    ) -> None:
        require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
        require_non_negative(max_wait, "max_wait")
        self._sim = sim
        self._batch_size = batch_size
        self._max_wait = max_wait
        #: Pending (item, arrived_at) pairs awaiting a flush.
        self._pending: list[tuple[T, float]] = []
        self._pending_weight = 0
        #: Monotone flush counter; guards the max_wait timer against firing
        #: after its buffer was already flushed by the size trigger.
        self._flush_epoch = 0

    @property
    def batch_size(self) -> int:
        """Current flush threshold (live-tunable via :meth:`configure`)."""
        return self._batch_size

    @property
    def max_wait(self) -> float:
        """Current flush deadline in virtual seconds."""
        return self._max_wait

    def configure(
        self, batch_size: int | None = None, max_wait: float | None = None
    ) -> None:
        """Retune the window on a live consumer.

        The adaptive controller calls this between ticks.  A shrink that
        leaves the buffer at/over the new threshold flushes immediately,
        and a shortened ``max_wait`` re-arms the flush timer at the new
        deadline — so de-escalating to latency mode never strands
        buffered items behind a stale long timer (the epoch guard makes
        the superseded timer harmless).
        """
        rearm = False
        if max_wait is not None:
            require_non_negative(max_wait, "max_wait")
            rearm = max_wait < self._max_wait
            self._max_wait = max_wait
        if batch_size is not None:
            require(batch_size >= 1, f"batch_size must be >= 1, got {batch_size}")
            if self._pending and self._pending_weight >= batch_size:
                # Flushed under the size the items waited under, so their
                # wait is still accounted as a batching stage.
                self._flush_pending(self._sim.clock.now())
            self._batch_size = batch_size
        if self._pending and rearm:
            self._arm_timer()

    def _add(self, item: T, arrived_at: float, weight: int = 1) -> None:
        """Buffer one arrival; flush if it fills the window."""
        self._pending.append((item, arrived_at))
        self._pending_weight += weight
        if self._pending_weight >= self._batch_size:
            self._flush_pending(arrived_at)
        elif len(self._pending) == 1:
            self._arm_timer()

    def _arm_timer(self) -> None:
        epoch = self._flush_epoch
        self._sim.schedule_after(
            self._max_wait, lambda: self._flush_if_pending(epoch)
        )

    def _flush_if_pending(self, epoch: int) -> None:
        """max_wait timer callback; a stale epoch means already flushed."""
        if epoch == self._flush_epoch and self._pending:
            self._flush_pending(self._sim.clock.now())

    def _flush_pending(self, flushed_at: float) -> None:
        buffered, self._pending = self._pending, []
        self._pending_weight = 0
        self._flush_epoch += 1
        self._flush(buffered, flushed_at)

    def _flush(self, buffered: list[tuple[T, float]], flushed_at: float) -> None:
        """What a full window does with its items (subclass hook)."""
        raise NotImplementedError
