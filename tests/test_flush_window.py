"""The flush-window contract, written once for both of its users.

``DetectionConsumer`` (events in front of the cluster) and
``DeliveryCoalescer`` (candidate batches in front of the funnel) are both
:class:`~repro.streaming.window.FlushWindow` subclasses; everything about
*when* a window flushes is pinned here, parametrised over the two, and
observed through each one's real flush output (the WAL tap sees every
event batch with its flush clock; a recording funnel sees every merged
candidate batch with its).  What each class does *with* a flushed window
stays in ``test_streaming_consumer.py`` / ``test_delivery_coalescer.py``.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import ActionType, DetectionParams, EdgeEvent
from repro.core.recommendation import RecommendationBatch, RecommendationGroup
from repro.sim.des import DiscreteEventSimulator
from repro.sim.metrics import LatencyBreakdown
from repro.streaming.consumer import (
    CandidateBatch,
    DeliveryCoalescer,
    DetectionConsumer,
)
from repro.streaming.queue import MessageQueue
from repro.streaming.window import FlushWindow

from tests.conftest import B1, C2


class _RecordingFunnel:
    """Stands where the delivery pipeline does; logs every dispatch."""

    def __init__(self, log):
        self._log = log

    def offer_batch(self, batch, now):
        self._log.append((now, len(batch)))
        return []


class Rig:
    """One live window: ``arrive(at)`` feeds it a unit-weight item the way
    its queue would; ``flushed`` lists ``(flush clock, items)`` per flush."""

    def __init__(self, kind, snapshot, batch_size, max_wait):
        self.sim = DiscreteEventSimulator()
        self.flushed: list[tuple[float, int]] = []
        breakdown = LatencyBreakdown()
        if kind == "consumer":
            cluster = Cluster.build(
                snapshot,
                DetectionParams(k=2, tau=600.0),
                ClusterConfig(num_partitions=1),
            )
            self.window = DetectionConsumer(
                self.sim,
                cluster,
                MessageQueue(self.sim, "push"),
                breakdown,
                batch_size=batch_size,
                max_wait=max_wait,
            )
            self.window.wal_tap = lambda batch, at: self.flushed.append(
                (at, len(batch))
            )
            self._item = lambda at: EdgeEvent(at, B1, C2)
            self.pending = lambda: self.window.pending_events
        else:
            self.window = DeliveryCoalescer(
                self.sim,
                _RecordingFunnel(self.flushed),
                breakdown,
                [],
                batch_size=batch_size,
                max_wait=max_wait,
            )
            self._item = lambda at: CandidateBatch(
                EdgeEvent(at, 100, 9, ActionType.FOLLOW),
                RecommendationBatch(
                    [RecommendationGroup([1], candidate=9, created_at=at)]
                ),
            )
            self.pending = lambda: self.window.pending_batches

    def arrive(self, at):
        self.window(self._item(at), at, at)

    def arrive_at(self, at):
        """Schedule an arrival so the simulator clock agrees with it."""
        self.sim.schedule_at(at, lambda: self.arrive(at))


@pytest.fixture(params=["consumer", "coalescer"])
def make_rig(request, figure1_snapshot):
    def build(batch_size=1, max_wait=0.05):
        return Rig(request.param, figure1_snapshot, batch_size, max_wait)

    return build


def test_both_streaming_ends_are_the_one_primitive():
    assert issubclass(DetectionConsumer, FlushWindow)
    assert issubclass(DeliveryCoalescer, FlushWindow)
    for cls in (DetectionConsumer, DeliveryCoalescer):
        assert "configure" not in vars(cls)
        assert "_flush_if_pending" not in vars(cls)


def test_size_trigger_flushes_at_the_filling_arrival(make_rig):
    rig = make_rig(batch_size=3, max_wait=10.0)
    rig.arrive(0.0)
    rig.arrive(1.0)
    assert rig.pending() == 2 and rig.flushed == []
    rig.arrive(2.0)
    assert rig.pending() == 0
    assert rig.flushed == [(2.0, 3)]


def test_size_one_is_the_same_path_with_no_timer(make_rig):
    rig = make_rig(batch_size=1, max_wait=10.0)
    rig.arrive(0.0)
    rig.arrive(1.0)
    assert rig.flushed == [(0.0, 1), (1.0, 1)]
    assert rig.pending() == 0
    assert rig.sim.pending() == 0  # flushed on arrival: nothing was armed


def test_max_wait_timer_flushes_a_trickle(make_rig):
    rig = make_rig(batch_size=100, max_wait=0.5)
    rig.arrive_at(1.0)
    rig.arrive_at(1.2)
    rig.sim.run()
    # One timer, armed by the first buffered item, covers the later one.
    assert rig.flushed == [(pytest.approx(1.5), 2)]
    assert rig.pending() == 0


def test_stale_timer_after_a_size_flush_is_harmless(make_rig):
    rig = make_rig(batch_size=2, max_wait=5.0)
    rig.arrive_at(0.0)
    rig.arrive_at(0.0)  # size flush at 0.0; the 5.0 timer is now stale
    rig.arrive_at(4.0)  # next window: its own timer fires at 9.0
    rig.sim.run()
    # The stale timer (t=5.0) found a newer epoch and flushed nothing.
    assert rig.flushed == [(0.0, 2), (pytest.approx(9.0), 1)]


def test_configure_shrink_flushes_at_once(make_rig):
    rig = make_rig(batch_size=100, max_wait=50.0)
    for at in (0.0, 1.0, 2.0):
        rig.arrive(at)
    assert rig.pending() == 3
    rig.window.configure(batch_size=2)
    # De-escalation must not strand the buffer behind the old timer.
    assert rig.pending() == 0
    assert rig.flushed == [(rig.sim.clock.now(), 3)]
    assert rig.window.batch_size == 2


def test_shortened_max_wait_rearms_the_timer(make_rig):
    rig = make_rig(batch_size=100, max_wait=50.0)

    def arrive_then_retune():
        rig.arrive(0.0)
        rig.window.configure(max_wait=2.0)

    rig.sim.schedule_at(0.0, arrive_then_retune)
    rig.sim.run()
    # The new 2 s deadline flushed; the superseded 50 s timer still
    # fires, harmlessly, thanks to the epoch guard.
    assert rig.flushed == [(pytest.approx(2.0), 1)]
    assert rig.window.max_wait == 2.0


def test_growing_the_window_leaves_the_buffer_waiting(make_rig):
    rig = make_rig(batch_size=4, max_wait=5.0)
    rig.arrive(0.0)
    rig.window.configure(batch_size=8, max_wait=10.0)
    assert rig.pending() == 1  # no spurious flush on escalate
    assert rig.flushed == []


def test_knobs_validate_at_construction_and_retune(make_rig):
    with pytest.raises(ValueError):
        make_rig(batch_size=0)
    with pytest.raises(ValueError):
        make_rig(max_wait=-1.0)
    rig = make_rig()
    with pytest.raises(ValueError):
        rig.window.configure(batch_size=0)
    with pytest.raises(ValueError):
        rig.window.configure(max_wait=-1.0)
    rig.window.configure(batch_size=16, max_wait=1.5)
    assert rig.window.batch_size == 16
    assert rig.window.max_wait == 1.5
