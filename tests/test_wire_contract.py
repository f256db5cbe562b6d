"""The worker wire's contract, driven alone against a toy echo worker.

Both tiers (partition transport, sharded delivery) sit on one
:class:`~repro.cluster.shm.Wire`; the cross-transport equivalence suites
prove they compute the same answers over it.  These tests pin the wire's
own behaviour — which lane a message takes, what the counters say, and
what each endpoint sees when the other one dies — over both shapes the
host may give a wire: queue-only (no ``/dev/shm``; forced here by
patching :func:`~repro.cluster.shm.shm_available` false) and fronted by
a ring (shaped here by patching the ring-size constants).  A regression
here would otherwise surface as a flaky hang two layers up.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import signal
import time

import numpy as np
import pytest

from repro.cluster import shm
from repro.cluster.shm import ShmRing, Wire, shm_available
from repro.core.wire import (
    FRAME_EVENT_BATCH,
    FRAME_PICKLE,
    read_frame,
    write_frame,
)
from repro.util import procpool
from repro.util.procpool import default_start_method, spawn_worker, stop_workers

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)

#: 256-byte slots: a 16-element int64 column fits, a 1000-element one
#: overflows.
RING = (2, 256)
WIRES = ["queue", pytest.param("ring", marks=needs_shm)]


def _frame_data(mem, message):
    return write_frame(mem, FRAME_EVENT_BATCH, cols=(message[1],))


def _data_from_frame(frame):
    return ("data", frame[1][0])


def _echo_worker_main(_state, wire):
    """Echo every message back down the lane its shape allows."""
    while True:
        message = wire.recv(_data_from_frame)
        if message is None or message[0] == "stop":
            return
        if message[0] == "tear":
            # Die mid-commit: the slot is opened and the head published,
            # but the commit stamp is never written.
            ring = wire._tx_ring
            ring.try_acquire_slot()
            ring._ctrl[0] = int(ring._ctrl[0]) + 1
            os._exit(1)
        if message[0] == "flood":
            # Wedge on a full reply ring: nobody reads these.
            while wire.send(("flood",)):
                pass
            return
        if not wire.send(message, _frame_data if message[0] == "data" else None):
            return
        if message[0] == "bye":
            return  # last words: reply, then exit unasked


def _wire_shape(kind: str, monkeypatch) -> None:
    """Make the next ``Wire.create`` build a *kind* wire: a ``RING``-shaped
    ring, or queue-only as on a host without ``/dev/shm``."""
    monkeypatch.setattr(shm, "DEFAULT_SLOTS", RING[0])
    monkeypatch.setattr(shm, "DEFAULT_SLOT_BYTES", RING[1])
    if kind == "queue":
        monkeypatch.setattr(shm, "shm_available", lambda: False)


def _spawn_echo(kind: str, monkeypatch):
    _wire_shape(kind, monkeypatch)
    context = multiprocessing.get_context(default_start_method())
    wire = Wire.create(context)
    return spawn_worker(
        context, 0, _echo_worker_main, None, name="repro-wire-echo", wire=wire
    )


def _segments_exist(names) -> bool:
    return any(os.path.exists(f"/dev/shm/{name}") for name in names)


@pytest.fixture(params=WIRES)
def echo(request, monkeypatch):
    worker = _spawn_echo(request.param, monkeypatch)
    names = worker.wire.segment_names
    assert len(names) == (2 if request.param == "ring" else 0)
    yield request.param, worker
    stop_workers([worker])
    assert not worker.process.is_alive()
    assert not _segments_exist(names)


class TestWireContract:
    def test_frame_that_fits_crosses_as_a_slab_frame(self, echo):
        kind, worker = echo
        wire = worker.wire
        column = np.arange(16, dtype=np.int64)
        assert wire.send(("data", column), _frame_data)
        tag, got = wire.recv(_data_from_frame)
        assert tag == "data" and np.array_equal(got, column)
        if kind == "ring":  # request + echoed reply, both framed
            assert (wire.frames_shm, wire.frames_fallback) == (2, 0)
        else:  # no ring: the framer is never consulted
            assert (wire.frames_shm, wire.frames_fallback) == (0, 1)
        assert wire.control_pickle == 0

    def test_frame_that_overflows_its_slot_takes_the_pickle_lane(self, echo):
        kind, worker = echo
        wire = worker.wire
        column = np.arange(1000, dtype=np.int64)  # 8 KB into 256-byte slots
        assert wire.send(("data", column), _frame_data)
        tag, got = wire.recv(_data_from_frame)
        assert tag == "data" and np.array_equal(got, column)
        assert wire.frames_shm == 0
        # The ring's marker tells the receiver a frame overflowed, so both
        # directions are counted; a queue-only wire sees only its own sends.
        assert wire.frames_fallback == (2 if kind == "ring" else 1)

    def test_control_tuple_round_trips_unframed(self, echo):
        _kind, worker = echo
        wire = worker.wire
        assert wire.send(("health", 7))
        assert wire.recv(_data_from_frame) == ("health", 7)
        assert (wire.frames_shm, wire.frames_fallback) == (0, 0)
        assert wire.control_pickle == 1

    def test_messages_stay_ordered_across_lanes(self, echo):
        _kind, worker = echo
        wire = worker.wire
        column = np.arange(4, dtype=np.int64)
        # Two outstanding, one per lane: the pickle lane must not overtake
        # (or be overtaken by) the frame lane.
        assert wire.send(("health", 1))
        assert wire.send(("data", column), _frame_data)
        assert wire.recv(_data_from_frame) == ("health", 1)
        tag, got = wire.recv(_data_from_frame)
        assert tag == "data" and np.array_equal(got, column)

    def test_peer_dead_before_post_reads_as_none(self, echo):
        kind, worker = echo
        wire = worker.wire
        worker.process.terminate()
        worker.process.join(timeout=5.0)
        # A free slot (or a queue) accepts the message; the death shows at
        # the receive, bounded by the liveness poll — never a hang.
        assert wire.send(("health", 1))
        assert wire.recv(_data_from_frame) is None
        if kind == "ring":  # ...and a full ring refuses instead of blocking
            assert wire.send(("health", 2))
            assert not wire.send(("health", 3))

    def test_reply_sent_before_death_is_still_delivered(self, echo):
        _kind, worker = echo
        wire = worker.wire
        assert wire.send(("bye",))
        worker.process.join(timeout=5.0)
        assert not worker.process.is_alive()
        # The final drain hands the reply over before reporting the death.
        assert wire.recv(_data_from_frame) == ("bye",)
        assert wire.recv(_data_from_frame) is None

    def test_stop_is_not_answered_and_joins_cleanly(self, echo):
        _kind, worker = echo
        names = worker.wire.segment_names
        stop_workers([worker])
        # A clean exit, not a terminate after JOIN_TIMEOUT_SECONDS.
        assert worker.process.exitcode == 0
        assert not _segments_exist(names)


@needs_shm
class TestRingWire:
    """Ring-only behaviour: the marker protocol and mid-commit death."""

    def test_payload_is_queued_before_the_marker_commits(self):
        requests, replies = queue_module.Queue(), queue_module.Queue()
        request_ring, reply_ring = ShmRing.create(*RING), ShmRing.create(*RING)
        wire = Wire(requests, replies, request_ring, reply_ring)
        try:
            assert wire.send(("health",))
            # Marker on the ring; payload already on the queue.
            frame = request_ring.try_acquire_frame()
            assert read_frame(frame)[0] == FRAME_PICKLE
            del frame
            request_ring.release_frame()
            assert requests.get_nowait() == ("health",)
            assert wire.control_pickle == 1
        finally:
            request_ring.close()
            reply_ring.close()

    def test_spec_attach_round_trip(self, monkeypatch):
        _wire_shape("ring", monkeypatch)
        context = multiprocessing.get_context(default_start_method())
        wire = Wire.create(context)
        request_name, reply_name = wire.segment_names
        try:
            spec = wire.spec
            assert (spec.request_name, spec.reply_name) == (
                request_name,
                reply_name,
            )
            peer_request = ShmRing.attach(request_name, spec.slots, spec.slot_bytes)
            assert wire.send(("health",))
            assert read_frame(peer_request.try_acquire_frame())[0] == FRAME_PICKLE
            peer_request.release_frame()
            peer_request.close()  # non-owner close never unlinks
            assert os.path.exists(f"/dev/shm/{request_name}")
        finally:
            wire.close()
        assert not os.path.exists(f"/dev/shm/{request_name}")
        assert not os.path.exists(f"/dev/shm/{reply_name}")
        wire.close()  # idempotent

    def test_peer_dying_mid_commit_reads_as_dead_not_garbage(
        self, monkeypatch
    ):
        worker = _spawn_echo("ring", monkeypatch)
        try:
            assert worker.wire.send(("tear",))
            worker.process.join(timeout=5.0)
            assert worker.process.exitcode == 1
            # The torn reply frame must not be decoded.
            assert worker.wire.recv(_data_from_frame) is None
        finally:
            stop_workers([worker])

    def test_worker_wedged_on_a_full_reply_ring_is_terminated(
        self, monkeypatch
    ):
        monkeypatch.setattr(procpool, "JOIN_TIMEOUT_SECONDS", 0.5)
        worker = _spawn_echo("ring", monkeypatch)
        names = worker.wire.segment_names
        assert worker.wire.send(("flood",))
        deadline = time.monotonic() + 5.0
        while worker.wire._rx_ring.occupancy() < RING[0]:  # reply ring fills
            assert time.monotonic() < deadline
            time.sleep(0.01)
        stop_workers([worker])
        assert worker.process.exitcode == -signal.SIGTERM
        assert not _segments_exist(names)
