"""The worker wire: mp queues, fronted by shared-memory rings where possible.

Every worker process (partition or delivery shard) talks to its parent
over one :class:`Wire`.  The wire always has a *pickle lane* — a pair of
``multiprocessing`` queues: pickle the columns, write them down a pipe,
read them back, unpickle.  At firehose rates that copy chain *is* the
cost — the committed E18 numbers show per-partition detection work
dropping while wall clock rises, which is pure wire overhead.  So
wherever POSIX shared memory works (:func:`shm_available`) the wire is
built *with a ring*: fixed-capacity ring buffers in
``multiprocessing.shared_memory`` segments, where a frame is written
once, in place, as flat numpy columns, and the reader decodes zero-copy
views of the very same bytes.  Whatever cannot travel as a frame
(control tuples, slot-overflow batches) still takes the pickle lane,
announced by an in-ring marker — so the queue lane is the ring's
fallback, and on a host without ``/dev/shm`` the whole wire.  No option
picks the lane: the host does.

Layout of one ring segment (all offsets 8-aligned)::

    +---------------------------------------------------------------+
    | ring header (64 B):  head u64 | tail u64 | (reserved)         |
    +---------------------------------------------------------------+
    | slot 0: slot header (64 B) | payload (slot_bytes)             |
    |   seq_open u64 | seq_commit u64 | nbytes u64 | (reserved)     |
    +---------------------------------------------------------------+
    | slot 1 ...                                                    |
    +---------------------------------------------------------------+

The protocol is single-producer / single-consumer (one ring per
direction per worker) with a seqlock-style per-slot handoff:

* **writer** — waits until ``head - tail < slots`` (full-ring
  backpressure; the *reader* never blocks the writer mid-copy, only a
  completely full ring does), stamps ``seq_open = head + 1``, writes the
  payload, stamps ``nbytes`` and ``seq_commit = head + 1``, and finally
  publishes ``head = head + 1``.
* **reader** — waits until ``tail < head``, checks
  ``seq_open == seq_commit == tail + 1`` (a mismatch is a torn frame:
  the writer died mid-write or the slot was corrupted), consumes the
  payload *in place*, and releases the slot with ``tail = tail + 1``.
  Nothing about the slot may be touched after release — the writer is
  free to overwrite it immediately.

Memory-ordering note: the counters and sequence stamps are aligned
8-byte stores issued one bytecode at a time by CPython, and the commit
stamp is checked on the read side — on the x86-TSO machines this repo
benches on the handoff is safe without fences; the torn-frame check is
the belt over those braces.

Cleanup discipline: ring segments are created (and therefore owned) by
the parent process only.  Workers *attach* by name and close their
mapping on exit; the parent unlinks every segment in ``close()`` —
including the slabs of workers that died mid-batch (dead-worker slab
reclamation) — and a module-level ``atexit`` sweep unlinks anything a
crashed caller left behind.  A ``kill -9`` runs no ``atexit``, so every
segment name carries its owner's pid and :func:`sweep_stale_segments`
(run by ``repro recover`` and whenever a ring wire is built) unlinks
the segments of owners that no longer exist — ``/dev/shm`` never
accumulates orphans.
The serving arenas (:class:`ShmArena`) extend the discipline to
*worker-created* segments: a worker that allocates a growth segment
derives its name deterministically from a parent-owned control segment,
so the parent can reclaim it by name (:func:`unlink_segment`) even after
a ``kill -9`` left no owner alive.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue as queue_module
import secrets
import time
from multiprocessing import shared_memory
from typing import Callable, NamedTuple

import numpy as np

from repro.core.wire import FRAME_PICKLE, read_frame, write_frame
from repro.util.validation import require, require_positive

__all__ = [
    "ARENA_HEADER_BYTES",
    "DEFAULT_SLOTS",
    "DEFAULT_SLOT_BYTES",
    "RING_HEADER_BYTES",
    "SLOT_HEADER_BYTES",
    "TornFrameError",
    "ShmArena",
    "ShmRing",
    "Wire",
    "WireSpec",
    "shm_available",
    "live_segment_names",
    "sweep_segments",
    "sweep_stale_segments",
    "unlink_segment",
]

#: Slots per ring lane, read when a wire is built.  Bounds the
#: pipelining depth a transport can stack (see ``WorkerTransport``):
#: with equal request and reply rings, fewer than ``slots`` outstanding
#: submits guarantees neither endpoint can deadlock on a full ring.
DEFAULT_SLOTS = 8

#: Payload capacity per slot.  A 512-event batch is ~13 KB and a typical
#: grouped reply a few hundred KB; 1 MiB keeps the fallback rate near
#: zero on the benchmarked workloads while costing 16 MiB per worker
#: (two lanes x 8 slots).
DEFAULT_SLOT_BYTES = 1 << 20

RING_HEADER_BYTES = 64
SLOT_HEADER_BYTES = 64

#: Escalating poll sleeps for ring waits: a couple of immediate rechecks,
#: then exponential backoff capped at 1 ms so an idle endpoint yields its
#: core (on one-core hosts the peer needs it) without adding more than
#: ~1 ms of wake-up latency to a multi-millisecond batch.
_POLL_INITIAL = 20e-6
_POLL_MAX = 1e-3

#: Liveness callbacks are only consulted this often (seconds) — they can
#: be as expensive as a waitpid.
_LIVENESS_INTERVAL = 0.05

#: Seconds between liveness checks while a pickle-lane read waits.
QUEUE_POLL_SECONDS = 0.1

_SEGMENT_DIR = "/dev/shm"
_SEGMENT_PREFIX = "repro_shm_"


class TornFrameError(RuntimeError):
    """A slot's sequence stamps are inconsistent with the ring counters.

    Seen when the writer died between opening and committing a frame (or
    the slab was corrupted); the frame's bytes must not be trusted.
    """


#: Segments created (owned) by this process, by name.  ``sweep_segments``
#: — called from transport ``close()`` paths and at interpreter exit —
#: unlinks them, so even an abnormal exit leaves ``/dev/shm`` clean.
_OWNED_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_NAME_COUNTER = 0


def _next_segment_name() -> str:
    """A collision-proof, greppable segment name (``/dev/shm/repro_shm_*``)."""
    global _NAME_COUNTER
    _NAME_COUNTER += 1
    return (
        f"{_SEGMENT_PREFIX}{os.getpid()}_{_NAME_COUNTER}_{secrets.token_hex(3)}"
    )


def live_segment_names() -> list[str]:
    """Names of segments this process currently owns (tests, sweeps)."""
    return sorted(_OWNED_SEGMENTS)


def sweep_segments(names: "list[str] | None" = None) -> int:
    """Close + unlink owned segments (all of them when *names* is None).

    Idempotent and tolerant: a segment already unlinked (e.g. by the
    resource tracker after a crash) is skipped silently.  Returns the
    number of segments reclaimed.
    """
    targets = list(_OWNED_SEGMENTS) if names is None else list(names)
    reclaimed = 0
    for name in targets:
        segment = _OWNED_SEGMENTS.pop(name, None)
        if segment is None:
            continue
        try:
            segment.close()
        except BufferError:
            # A caller-held view still pins the mapping; the mapping dies
            # with the views, but the /dev/shm entry must go now.
            pass
        try:
            segment.unlink()
            reclaimed += 1
        except (FileNotFoundError, OSError):
            pass
    return reclaimed


def unlink_segment(name: str) -> bool:
    """Close + unlink one segment by *name*, owned by this process or not.

    The serving-arena reclamation primitive: arena growth segments are
    created by *worker* processes under names derived from a parent-owned
    control segment, so after a ``kill -9`` the parent reclaims them by
    name without ever having held a handle.  Tolerant and idempotent —
    a name that is already gone returns False silently.  Unlinking never
    invalidates existing mappings (POSIX removes the name only), so
    readers attached to the segment keep working.
    """
    segment = _OWNED_SEGMENTS.pop(name, None)
    if segment is None:
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError, ValueError):
            return False
    try:
        segment.close()
    except (OSError, BufferError):
        pass
    try:
        segment.unlink()
        return True
    except (FileNotFoundError, OSError):
        return False


atexit.register(sweep_segments)


def sweep_stale_segments() -> int:
    """Unlink every ``repro_shm_<pid>_*`` segment whose owner pid is gone.

    The ``kill -9`` half of the cleanup discipline: a SIGKILLed parent
    runs no ``close()`` and no ``atexit``, so its rings, control
    segments and the serving generations its workers derived from them
    (all named under the parent's pid) would sit in ``/dev/shm`` forever.
    A live owner's segments are never touched — a pid that exists, even
    one we may not signal, counts as alive.  Unlinking removes the name
    only, so an orphaned worker still mapped to a swept segment keeps
    running until it notices its parent is gone.  Assumes ``/dev/shm`` is
    not shared across pid namespaces (there a live owner would look
    dead).  Returns the number of segments reclaimed; a host without
    ``/dev/shm`` has nothing to sweep.
    """
    try:
        names = os.listdir(_SEGMENT_DIR)
    except OSError:
        return 0
    reclaimed = 0
    for name in names:
        if not name.startswith(_SEGMENT_PREFIX):
            continue
        owner = name[len(_SEGMENT_PREFIX):].split("_", 1)[0]
        if not owner.isdigit():
            continue
        try:
            os.kill(int(owner), 0)
        except ProcessLookupError:
            pass  # owner is gone: the segment is an orphan
        except OSError:
            continue  # exists but not ours to signal
        else:
            continue
        try:
            os.unlink(os.path.join(_SEGMENT_DIR, name))
            reclaimed += 1
        except OSError:
            pass  # a concurrent sweep got there first
    return reclaimed


_SHM_AVAILABLE: bool | None = None


def shm_available() -> bool:
    """Whether POSIX shared memory works on this host (cached probe).

    Containers without a ``/dev/shm`` mount (and some locked-down CI
    sandboxes) fail segment creation; :meth:`Wire.create` builds its rings
    only where this holds, and the serving arenas and ring-specific tests
    gate on it.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(
                create=True, size=64, name=_next_segment_name()
            )
            probe.close()
            probe.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


def _wait(
    poll: Callable[[], object],
    is_peer_alive: Callable[[], bool] | None = None,
    timeout: float | None = None,
) -> object:
    """Poll *poll* until it returns non-None, with backoff and liveness.

    Returns the poll value, or None when *timeout* elapsed or the peer
    died (after one final poll, covering the committed-then-died race).
    """
    value = poll()
    if value is not None:
        return value
    deadline = None if timeout is None else time.monotonic() + timeout
    next_liveness = time.monotonic() + _LIVENESS_INTERVAL
    sleep = _POLL_INITIAL
    while True:
        time.sleep(sleep)
        sleep = min(sleep * 2.0, _POLL_MAX)
        value = poll()
        if value is not None:
            return value
        now = time.monotonic()
        if deadline is not None and now >= deadline:
            return None
        if is_peer_alive is not None and now >= next_liveness:
            if not is_peer_alive():
                return poll()  # final drain: frame committed before death
            next_liveness = now + _LIVENESS_INTERVAL


def poll_queue(q, is_peer_alive: Callable[[], bool]) -> tuple | None:
    """One message from *q*, or None once the peer is known dead.

    Polls with a short timeout and checks peer liveness between polls, so
    a message that will never come (the peer died mid-batch) is detected
    instead of hanging the caller.  One final non-blocking drain covers a
    message buffered (or mid-flush on the feeder thread) before the peer
    died — a ring marker may commit before the queue feeder flushes its
    payload.  A peer killed mid-*write* leaves a truncated pickle on the
    pipe, which surfaces as a deserialization error out of ``get`` and is
    treated exactly like no message at all.
    """
    while True:
        try:
            return q.get(timeout=QUEUE_POLL_SECONDS)
        except queue_module.Empty:
            if not is_peer_alive():
                try:  # message may have been buffered before the death
                    return q.get_nowait()
                except Exception:  # Empty, or a truncated frame
                    return None
        except Exception:
            # Half-written frame (peer terminated mid-put).
            return None


class ShmRing:
    """One single-producer/single-consumer slot ring in a shm segment.

    Create with :meth:`create` (parent, owns the segment) or
    :meth:`attach` (worker, maps an existing segment).  Each endpoint
    uses exactly one side of the API: ``acquire_slot``/``commit_slot``
    as the writer, ``acquire_frame``/``release_frame`` as the reader.
    """

    __slots__ = ("name", "slots", "slot_bytes", "_shm", "_mem", "_ctrl", "_owner")

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        slots: int,
        slot_bytes: int,
        owner: bool,
    ) -> None:
        self.name = segment.name
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._shm = segment
        self._mem = np.frombuffer(segment.buf, dtype=np.uint8)
        self._ctrl = self._mem[:16].view(np.uint64)  # [head, tail]
        self._owner = owner

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @staticmethod
    def segment_bytes(slots: int, slot_bytes: int) -> int:
        """Total segment size for a ring of the given shape."""
        return RING_HEADER_BYTES + slots * (SLOT_HEADER_BYTES + slot_bytes)

    @classmethod
    def create(cls, slots: int, slot_bytes: int) -> "ShmRing":
        """Allocate a fresh ring segment (parent side; owns the unlink)."""
        require_positive(slots, "slots")
        require_positive(slot_bytes, "slot_bytes")
        require(slot_bytes % 8 == 0, "slot_bytes must be 8-byte aligned")
        name = _next_segment_name()
        segment = shared_memory.SharedMemory(
            create=True, size=cls.segment_bytes(slots, slot_bytes), name=name
        )
        # Fresh POSIX shm is zero-filled, so head = tail = 0 already holds;
        # stamp explicitly anyway — the protocol must not depend on it.
        ring = cls(segment, slots, slot_bytes, owner=True)
        ring._ctrl[0] = 0
        ring._ctrl[1] = 0
        _OWNED_SEGMENTS[name] = segment
        return ring

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int) -> "ShmRing":
        """Map an existing ring segment (worker side; never unlinks)."""
        segment = shared_memory.SharedMemory(name=name)
        return cls(segment, slots, slot_bytes, owner=False)

    def close(self) -> None:
        """Drop this mapping (and unlink when owner).  Idempotent."""
        # The numpy views pin the exported buffer; break them first or
        # SharedMemory.close() raises BufferError.
        self._ctrl = None
        self._mem = None
        if self._owner:
            sweep_segments([self.name])
        else:
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass

    # ------------------------------------------------------------------
    # Shared state reads
    # ------------------------------------------------------------------

    def occupancy(self) -> int:
        """Committed-but-unreleased frames currently in the ring."""
        ctrl = self._ctrl
        return int(ctrl[0]) - int(ctrl[1])

    def _slot_base(self, seq: int) -> int:
        return RING_HEADER_BYTES + (seq % self.slots) * (
            SLOT_HEADER_BYTES + self.slot_bytes
        )

    # ------------------------------------------------------------------
    # Writer side
    # ------------------------------------------------------------------

    def try_acquire_slot(self) -> "np.ndarray | None":
        """The next free slot's payload view, or None when the ring is full.

        Opens the slot (``seq_open`` stamped) but publishes nothing until
        :meth:`commit_slot`; abandoning an acquired slot is harmless.
        """
        head = int(self._ctrl[0])
        if head - int(self._ctrl[1]) >= self.slots:
            return None
        base = self._slot_base(head)
        header = self._mem[base : base + 24].view(np.uint64)
        header[0] = head + 1  # seq_open
        payload_base = base + SLOT_HEADER_BYTES
        return self._mem[payload_base : payload_base + self.slot_bytes]

    def acquire_slot(
        self,
        is_peer_alive: Callable[[], bool] | None = None,
        timeout: float | None = None,
    ) -> "np.ndarray | None":
        """Blocking :meth:`try_acquire_slot` (None on timeout/dead peer)."""
        return _wait(self.try_acquire_slot, is_peer_alive, timeout)

    def commit_slot(self, nbytes: int) -> None:
        """Publish the acquired slot's first *nbytes* as one frame."""
        require(0 <= nbytes <= self.slot_bytes, "frame exceeds slot capacity")
        head = int(self._ctrl[0])
        base = self._slot_base(head)
        header = self._mem[base : base + 24].view(np.uint64)
        header[2] = nbytes
        header[1] = head + 1  # seq_commit: payload is complete
        self._ctrl[0] = head + 1  # publish

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------

    def try_acquire_frame(self) -> "np.ndarray | None":
        """The oldest committed frame's payload view, or None when empty.

        Raises:
            TornFrameError: the slot's stamps disagree with the counters.
        """
        tail = int(self._ctrl[1])
        if tail >= int(self._ctrl[0]):
            return None
        seq = tail + 1
        base = self._slot_base(tail)
        header = self._mem[base : base + 24].view(np.uint64)
        if int(header[0]) != seq or int(header[1]) != seq:
            raise TornFrameError(
                f"ring {self.name}: slot for seq {seq} holds "
                f"open={int(header[0])} commit={int(header[1])}"
            )
        nbytes = int(header[2])
        payload_base = base + SLOT_HEADER_BYTES
        return self._mem[payload_base : payload_base + nbytes]

    def acquire_frame(
        self,
        is_peer_alive: Callable[[], bool] | None = None,
        timeout: float | None = None,
    ) -> "np.ndarray | None":
        """Blocking :meth:`try_acquire_frame` (None on timeout/dead peer)."""
        return _wait(self.try_acquire_frame, is_peer_alive, timeout)

    def release_frame(self) -> None:
        """Hand the oldest frame's slot back to the writer.

        Every view returned by ``acquire_frame`` — and everything decoded
        zero-copy from it — is invalid after this call.
        """
        self._ctrl[1] = int(self._ctrl[1]) + 1


class WireSpec(NamedTuple):
    """Picklable handle a worker uses to attach its end of a :class:`Wire`.

    Travels in the worker's ``Process`` arguments — the only place a
    ``multiprocessing`` queue may be pickled.  The ring names are None
    on a queue-only wire.
    """

    requests: object
    replies: object
    request_name: str | None
    reply_name: str | None
    slots: int
    slot_bytes: int

    def attach(self) -> "Wire":
        """The worker's endpoint: the parent's mirror image."""
        tx_ring = rx_ring = None
        if self.request_name is not None:
            rx_ring = ShmRing.attach(self.request_name, self.slots, self.slot_bytes)
            tx_ring = ShmRing.attach(self.reply_name, self.slots, self.slot_bytes)
        return Wire(
            self.replies,
            self.requests,
            tx_ring,
            rx_ring,
            multiprocessing.parent_process().is_alive,
        )


class Wire:
    """One endpoint of a worker's wire: a pickle lane, optionally a ring.

    Built with a ring (:meth:`create` on a host with shared memory) the
    wire owns a request ring (parent writes) and a reply ring,
    and the rings are the sole message *ordering* channel: a message
    whose *framer* fits a slot crosses as a slab frame; anything else —
    control tuples, slot-overflow batches — goes on the queue announced
    by a ``FRAME_PICKLE`` marker, queue payload first, marker second, so
    a consumed marker's payload is already in flight.  Without a ring
    every send takes the pickle lane and every receive is a queue read.

    The parent :meth:`create`\\ s the wire (owning both segments) and ships
    the picklable :attr:`spec` to the worker, which
    :meth:`~WireSpec.attach`\\ es the mirror endpoint.  Every wait — a full
    ring, an empty ring, an empty queue — polls :attr:`peer_alive`, so
    neither endpoint can block forever on a dead peer.

    Each endpoint counts what it sent and what it received (frames vs.
    pickle fallbacks); :func:`repro.util.procpool.wire_stats` sums the
    parent-side counters into the transports' ``wire_stats()``.
    """

    __slots__ = (
        "_tx_queue",
        "_rx_queue",
        "_tx_ring",
        "_rx_ring",
        "_holding",
        "peer_alive",
        "slots",
        "frames_shm",
        "frames_fallback",
        "control_pickle",
    )

    def __init__(
        self,
        tx_queue,
        rx_queue,
        tx_ring: "ShmRing | None" = None,
        rx_ring: "ShmRing | None" = None,
        peer_alive: Callable[[], bool] = lambda: True,
    ) -> None:
        self._tx_queue = tx_queue
        self._rx_queue = rx_queue
        self._tx_ring = tx_ring
        self._rx_ring = rx_ring
        self._holding = False
        #: Liveness probe for the other endpoint.  The parent's is bound
        #: by ``spawn_worker`` once the worker process exists.
        self.peer_alive = peer_alive
        #: Ring slots per direction (0 on a queue-only wire).
        self.slots = 0 if tx_ring is None else tx_ring.slots
        self.frames_shm = 0
        self.frames_fallback = 0
        self.control_pickle = 0

    @classmethod
    def create(cls, context) -> "Wire":
        """The parent's endpoint: ring-fronted wherever the host has POSIX
        shared memory (:func:`shm_available`), queue-only where it has not.

        The ring shape is :data:`DEFAULT_SLOTS` x :data:`DEFAULT_SLOT_BYTES`,
        read at call time.  Building a ring first sweeps the segments dead
        owners left in ``/dev/shm`` (:func:`sweep_stale_segments`), so a
        crash loop cannot exhaust it.
        """
        request = reply = None
        if shm_available():
            sweep_stale_segments()
            request = ShmRing.create(DEFAULT_SLOTS, DEFAULT_SLOT_BYTES)
            try:
                reply = ShmRing.create(DEFAULT_SLOTS, DEFAULT_SLOT_BYTES)
            except Exception:
                request.close()
                raise
        return cls(context.Queue(), context.Queue(), request, reply)

    @property
    def spec(self) -> WireSpec:
        ring = self._tx_ring
        if ring is None:
            return WireSpec(self._tx_queue, self._rx_queue, None, None, 0, 0)
        return WireSpec(
            self._tx_queue,
            self._rx_queue,
            ring.name,
            self._rx_ring.name,
            ring.slots,
            ring.slot_bytes,
        )

    @property
    def segment_names(self) -> list[str]:
        """Names of the ring segments behind this wire (none without a ring)."""
        if self._tx_ring is None:
            return []
        return [self._tx_ring.name, self._rx_ring.name]

    def send(
        self,
        message: tuple,
        framer: "Callable[[np.ndarray, tuple], int | None] | None" = None,
        timeout: float | None = None,
    ) -> bool:
        """Send *message*: as a slab frame when *framer* fits, else pickled.

        ``framer(mem, message)`` encodes the message into a ring slot and
        returns its byte length, or None when it does not fit.  Returns
        False when no ring slot could be acquired (peer dead, or the ring
        stayed full past *timeout* — the caller's forceful-shutdown path
        covers that); a queue-only send always succeeds.
        """
        ring = self._tx_ring
        mem = None
        if ring is not None:
            mem = ring.acquire_slot(self.peer_alive, timeout)
            if mem is None:
                return False
            nbytes = None if framer is None else framer(mem, message)
            if nbytes is not None:
                ring.commit_slot(nbytes)
                self.frames_shm += 1
                return True
        if framer is None:
            self.control_pickle += 1
        else:
            self.frames_fallback += 1  # no ring, or too large for a slot
        # Pickle lane: queue payload first, then the ring marker, so a
        # consumed marker's payload is guaranteed to be in flight.  The
        # marker's aux tells the receiver whether a frame overflowed.
        self._tx_queue.put(message)
        if mem is not None:
            ring.commit_slot(
                write_frame(mem, FRAME_PICKLE, aux=int(framer is not None))
            )
        return True

    def recv(
        self, decode: Callable[[tuple], tuple], copy: bool = True
    ) -> tuple | None:
        """The next message, or None once the peer is known dead.

        A slab frame is handed to ``decode(read_frame(...))``, which
        rebuilds the tuple the pickle lane would have delivered — callers
        never see which lane a message took.  With ``copy=False`` the
        decoded columns are **zero-copy views of the ring slot**, which
        stays held until :meth:`release`; the caller must drop every such
        view first.  A frame torn by a peer that died mid-commit reads as
        a dead peer.
        """
        ring = self._rx_ring
        if ring is not None:
            try:
                mem = ring.acquire_frame(self.peer_alive)
            except TornFrameError:  # died mid-commit: the frame is garbage
                return None
            if mem is None:
                return None
            frame = read_frame(mem, copy=copy)
            del mem
            if frame[0] != FRAME_PICKLE:
                self.frames_shm += 1
                if copy:
                    ring.release_frame()
                else:
                    self._holding = True
                return decode(frame)
            self.frames_fallback += frame[5]
            ring.release_frame()
        return poll_queue(self._rx_queue, self.peer_alive)

    def release(self) -> None:
        """Hand back the slot a ``recv(copy=False)`` frame still holds.

        A no-op when nothing is held (queue-only wire, or the message took
        the pickle lane), so callers release unconditionally.
        """
        if self._holding:
            self._holding = False
            self._rx_ring.release_frame()

    def backlog(self) -> int:
        """Messages sent but not yet consumed by the peer."""
        if self._tx_ring is not None:
            return self._tx_ring.occupancy()
        try:
            return self._tx_queue.qsize()
        except NotImplementedError:  # macOS: qsize unsupported
            return 0

    def occupancy(self) -> int:
        """Committed-but-unreleased ring frames, both directions."""
        if self._tx_ring is None:
            return 0
        return self._tx_ring.occupancy() + self._rx_ring.occupancy()

    def close(self) -> None:
        """Drop ring mappings (the owner also unlinks) and close the queues.

        Idempotent.  The parent calls it only after joining the worker —
        including one that died mid-batch — so abnormal exits reclaim the
        slabs too.
        """
        for ring in (self._tx_ring, self._rx_ring):
            if ring is not None:
                ring.close()
        self._tx_ring = self._rx_ring = None
        self._tx_queue.close()
        self._rx_queue.close()


#: Control-word area at the front of every arena segment: eight ``u64``
#: words whose meaning the arena's protocol defines (the serving arena
#: uses them for its structural seqlock, generation counter, and
#: writer-published gauges).
ARENA_HEADER_BYTES = 64

#: Arena array fields: ``(name, dtype, shape)`` triples.  Offsets are
#: assigned sequentially after the header, each 8-aligned, so any two
#: processes carving the same field list see the same layout.
ArenaFields = "list[tuple[str, np.dtype, tuple[int, ...]]]"


def _arena_layout(fields) -> tuple[int, list[tuple[str, np.dtype, tuple, int]]]:
    """(total segment bytes, [(name, dtype, shape, byte offset)])."""
    offset = ARENA_HEADER_BYTES
    placed = []
    for name, dtype, shape in fields:
        dtype = np.dtype(dtype)
        offset = (offset + 7) & ~7
        placed.append((name, dtype, tuple(shape), offset))
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return offset, placed


class ShmArena:
    """One shm segment carving a ``u64`` header plus named numpy arrays.

    The building block under the in-worker serving caches: a writer
    process :meth:`create`\\ s a segment whose layout is a pure function
    of its field list, and any other process :meth:`attach`\\ es the same
    fields (or :meth:`attach_dynamic` when the shapes themselves live in
    the header) and sees the very same bytes as numpy views — no copies,
    no pickling.  Fresh POSIX shm is zero-filled, which the serving
    table's probe loops rely on (an unwritten slot reads as empty).

    Concurrency is the *caller's* protocol: this class only maps memory.
    Ownership follows creation — a created segment lands in the module
    sweep list (unlinked at ``close()``/``atexit``), an attached one is
    never unlinked by :meth:`close`.
    """

    __slots__ = ("name", "_shm", "_mem", "header", "arrays", "_owner")

    def __init__(
        self, segment: shared_memory.SharedMemory, fields, owner: bool
    ) -> None:
        self.name = segment.name
        self._shm = segment
        self._mem = np.frombuffer(segment.buf, dtype=np.uint8)
        self.header = self._mem[:ARENA_HEADER_BYTES].view(np.uint64)
        self._owner = owner
        self.arrays: dict[str, np.ndarray] = {}
        for field_name, dtype, shape, offset in _arena_layout(fields)[1]:
            nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
            self.arrays[field_name] = (
                self._mem[offset : offset + nbytes].view(dtype).reshape(shape)
            )

    @staticmethod
    def segment_bytes(fields) -> int:
        """Total segment size for the given field list."""
        return _arena_layout(fields)[0]

    @classmethod
    def create(cls, fields, name: str | None = None) -> "ShmArena":
        """Allocate a fresh, zero-filled arena segment (creator owns it)."""
        name = name or _next_segment_name()
        segment = shared_memory.SharedMemory(
            create=True, size=cls.segment_bytes(fields), name=name
        )
        _OWNED_SEGMENTS[name] = segment
        return cls(segment, fields, owner=True)

    @classmethod
    def attach(cls, name: str, fields) -> "ShmArena":
        """Map an existing arena with a known field list (never unlinks)."""
        return cls(shared_memory.SharedMemory(name=name), fields, owner=False)

    @classmethod
    def attach_dynamic(cls, name: str, fields_from_header) -> "ShmArena":
        """Attach when the field shapes live in the segment's own header.

        *fields_from_header* receives the ``u64`` header view and returns
        the field list — the serving arena stores (capacity, k) in its
        data header, so a reader can attach any generation knowing only
        its name.
        """
        segment = shared_memory.SharedMemory(name=name)
        header = (
            np.frombuffer(segment.buf, dtype=np.uint8)[:ARENA_HEADER_BYTES]
            .view(np.uint64)
        )
        fields = fields_from_header(header)
        del header
        return cls(segment, fields, owner=False)

    def nbytes(self) -> int:
        """Mapped bytes (the full segment)."""
        return 0 if self._mem is None else int(self._mem.nbytes)

    def release(self) -> None:
        """Drop this handle's views without closing mapping or name.

        For creators that only needed to allocate + zero-init: ownership
        stays in the module sweep list (the name is reclaimed later by
        ``sweep_segments``/``unlink_segment``), while other handles keep
        attaching by name.
        """
        self.header = None
        self.arrays = {}
        self._mem = None

    def try_close_mapping(self) -> bool:
        """Release views and close the mapping if nothing else exports it.

        For retiring an old generation whose *name* is already unlinked:
        the mapping can only be unmapped once every external numpy view
        into it has died (``mmap`` refuses while exported pointers
        exist).  Returns True once the mapping is closed; the caller
        retries later on False — never letting the segment reach GC with
        live views, which would spray ``BufferError`` from ``__del__``.
        """
        self.release()
        try:
            self._shm.close()
            return True
        except BufferError:
            return False
        except OSError:
            return True  # already closed

    def close(self) -> None:
        """Drop this mapping (and unlink when owner).  Idempotent."""
        self.release()
        if self._owner:
            sweep_segments([self.name])
        else:
            try:
                self._shm.close()
            except (OSError, BufferError):
                pass

    def __del__(self) -> None:
        # Drop our views before the SharedMemory slot is torn down —
        # otherwise its __del__ hits the mmap while our exports are
        # still alive and sprays an ignored BufferError.
        try:
            self.release()
        except Exception:
            pass
