"""Unit tests for the shared-memory ring protocol and the slab frame codec.

The equivalence suites prove the shm *transports* compute the same
answers; these tests pin the ring's own invariants — wraparound,
full-ring backpressure, torn-frame detection, overflow behaviour, and
segment reclamation — at the protocol level, where a regression would
otherwise surface as a flaky hang.  The :class:`~repro.cluster.shm.Wire`
built on top of the ring has its own suite, ``tests/test_wire_contract.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cluster.shm import (
    ShmRing,
    TornFrameError,
    live_segment_names,
    shm_available,
    sweep_segments,
    sweep_stale_segments,
)
from repro.core.wire import (
    FRAME_EVENT_BATCH,
    FRAME_PICKLE,
    read_frame,
    write_frame,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable on this host"
)


def _payload(i: int) -> np.ndarray:
    return np.full(8, i, dtype=np.uint8)


class TestRingProtocol:
    def test_frames_survive_wraparound(self):
        ring = ShmRing.create(slots=4, slot_bytes=64)
        try:
            for i in range(10):  # 2.5 laps around a 4-slot ring
                mem = ring.try_acquire_slot()
                mem[:8] = _payload(i)
                ring.commit_slot(8)
                frame = ring.try_acquire_frame()
                assert frame is not None and len(frame) == 8
                assert (frame == i).all()
                ring.release_frame()
            del mem, frame  # held views would pin the mmap past close
            assert ring.occupancy() == 0
        finally:
            ring.close()

    def test_full_ring_blocks_writer_only(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            for i in range(2):
                ring.try_acquire_slot()[:8] = _payload(i)
                ring.commit_slot(8)
            assert ring.occupancy() == 2
            assert ring.try_acquire_slot() is None
            assert ring.acquire_slot(timeout=0.05) is None
            # The reader is never blocked by the full ring...
            frame = ring.try_acquire_frame()
            assert (frame == 0).all()
            ring.release_frame()
            del frame
            # ...and releasing one frame frees exactly one slot.
            assert ring.try_acquire_slot() is not None
        finally:
            ring.close()

    def test_empty_ring_returns_none_to_reader(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            assert ring.try_acquire_frame() is None
            assert ring.acquire_frame(timeout=0.05) is None
        finally:
            ring.close()

    def test_torn_frame_detected(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            # Simulate a writer that died mid-commit: seq_open stamped,
            # head published, but seq_commit never written.
            head = int(ring._ctrl[0])
            base = ring._slot_base(head)
            header = ring._mem[base : base + 24].view(np.uint64)
            header[0] = head + 1  # seq_open
            ring._ctrl[0] = head + 1  # publish without committing
            del header
            with pytest.raises(TornFrameError):
                ring.try_acquire_frame()
        finally:
            ring.close()

    def test_abandoned_slot_is_harmless(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            assert ring.try_acquire_slot() is not None  # acquired, dropped
            ring.try_acquire_slot()[:8] = _payload(7)
            ring.commit_slot(8)
            assert (ring.try_acquire_frame() == 7).all()
            ring.release_frame()
        finally:
            ring.close()

    def test_commit_rejects_oversized_frame(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            ring.try_acquire_slot()
            with pytest.raises(ValueError, match="slot capacity"):
                ring.commit_slot(65)
        finally:
            ring.close()

    def test_slot_bytes_must_be_aligned(self):
        with pytest.raises(ValueError, match="8-byte"):
            ShmRing.create(slots=2, slot_bytes=63)

    def test_close_unlinks_owned_segment(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        name = ring.name
        assert name in live_segment_names()
        assert os.path.exists(f"/dev/shm/{name}")
        ring.close()
        assert name not in live_segment_names()
        assert not os.path.exists(f"/dev/shm/{name}")
        ring.close()  # idempotent

    def test_sweep_reclaims_forgotten_segments(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        name = ring.name
        assert sweep_segments([name]) == 1
        assert not os.path.exists(f"/dev/shm/{name}")
        assert sweep_segments([name]) == 0  # already gone


class TestFrameCodec:
    def _ring(self):
        return ShmRing.create(slots=2, slot_bytes=1024)

    def test_round_trip_all_dtypes_and_blobs(self):
        ring = self._ring()
        try:
            cols = (
                np.array([1, -2, 3], dtype=np.int64),
                np.array([0.5, 1.5], dtype=np.float64),
                np.array([7], dtype=np.uint8),
                np.array([9, 10], dtype=np.uint16),
                np.array([], dtype=np.uint64),
            )
            blobs = (b"diamond\x00wedge", b"")
            mem = ring.try_acquire_slot()
            nbytes = write_frame(
                mem, FRAME_EVENT_BATCH, cols, blobs, now=42.0,
                latency=0.25, aux=-3,
            )
            assert nbytes is not None
            ring.commit_slot(nbytes)
            kind, got_cols, got_blobs, now, latency, aux = read_frame(
                ring.try_acquire_frame(), copy=True
            )
            assert kind == FRAME_EVENT_BATCH
            assert now == 42.0 and latency == 0.25 and aux == -3
            assert tuple(got_blobs) == blobs
            for want, got in zip(cols, got_cols):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            del mem
            ring.release_frame()
        finally:
            ring.close()

    def test_marker_frame_round_trips(self):
        ring = self._ring()
        try:
            mem = ring.try_acquire_slot()
            ring.commit_slot(write_frame(mem, FRAME_PICKLE))
            kind, cols, blobs, now, _latency, _aux = read_frame(
                ring.try_acquire_frame()
            )
            assert kind == FRAME_PICKLE
            assert list(cols) == [] and list(blobs) == [] and now is None
            del mem
            ring.release_frame()
        finally:
            ring.close()

    def test_overflow_returns_none_and_writes_nothing(self):
        ring = ShmRing.create(slots=2, slot_bytes=64)
        try:
            mem = ring.try_acquire_slot()
            big = (np.arange(1000, dtype=np.int64),)
            assert write_frame(mem, FRAME_EVENT_BATCH, big) is None
            # The slot is reusable: a fitting frame still goes through.
            nbytes = write_frame(mem, FRAME_PICKLE)
            assert nbytes is not None
            ring.commit_slot(nbytes)
            del mem
            assert read_frame(ring.try_acquire_frame())[0] == FRAME_PICKLE
            ring.release_frame()
        finally:
            ring.close()

    def test_zero_copy_views_alias_the_slab(self):
        ring = self._ring()
        try:
            col = np.array([5, 6, 7], dtype=np.int64)
            mem = ring.try_acquire_slot()
            ring.commit_slot(write_frame(mem, FRAME_EVENT_BATCH, (col,)))
            frame = ring.try_acquire_frame()
            _kind, (view,), _blobs, _now, _lat, _aux = read_frame(frame)
            assert view.base is not None  # a view, not a copy
            _kind, (copied,), *_rest = read_frame(frame, copy=True)
            assert copied.base is None or copied.base is not frame
            del mem, frame, view
            ring.release_frame()
        finally:
            ring.close()


class TestStaleSegmentSweep:
    """kill -9 runs no cleanup: orphans are found by their owner's pid."""

    def test_sweeps_dead_owners_and_spares_live_ones(self):
        finished = subprocess.Popen([sys.executable, "-c", "pass"])
        finished.wait()
        orphans = [
            f"/dev/shm/repro_shm_{finished.pid}_1_abc123",
            # a serving generation a worker derived from its parent's name
            f"/dev/shm/repro_shm_{finished.pid}_2_def456_g3",
        ]
        for path in orphans:
            with open(path, "wb") as handle:
                handle.write(b"\0" * 64)
        mine = ShmRing.create(slots=2, slot_bytes=64)
        foreign = "/dev/shm/repro_shm_notapid_1_abc123"
        with open(foreign, "wb"):
            pass
        try:
            assert sweep_stale_segments() >= len(orphans)
            assert not any(os.path.exists(path) for path in orphans)
            # A live owner's segment — ours — is never touched, nor is a
            # name that merely looks similar.
            assert os.path.exists(f"/dev/shm/{mine.name}")
            assert os.path.exists(foreign)
            assert sweep_stale_segments() == 0
        finally:
            mine.close()
            os.unlink(foreign)
