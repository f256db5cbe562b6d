"""Shared worker-process plumbing for the cluster and delivery transports.

Both the partition transport (:mod:`repro.cluster.transport`) and the
sharded delivery fan-out (:mod:`repro.delivery.sharded`) host stateful
endpoints in ``multiprocessing`` workers, each behind one
:class:`~repro.cluster.shm.Wire`.  The lifecycle edge cases are identical
— and subtle enough that they must not be maintained twice:

* **bootstrap without parent retention** — the worker's (large) state is
  handed over in a one-shot holder list that the parent clears right
  after ``start()``: under ``fork`` the child copied it at fork time,
  under ``spawn`` it was pickled synchronously during ``start()``, so
  the parent never keeps P full state copies alive for the run.
* **death detection on every wait** — the wire polls its peer's liveness
  while it waits, in both directions: a reply that will never come
  (worker died mid-batch) reads as None at gather, and a worker whose
  parent was SIGKILLed exits on its own instead of blocking forever.
* **graceful-then-forceful shutdown** — a stop message and bounded join
  per worker, then terminate, so a wedged worker can never hang the
  parent.
"""

from __future__ import annotations

import gc
import multiprocessing
import sys
from typing import Callable

#: Seconds a graceful close waits per worker before terminating it.
JOIN_TIMEOUT_SECONDS = 5.0

#: Seconds ``stop_workers`` waits for a ring slot to carry the stop.
STOP_SEND_TIMEOUT_SECONDS = 1.0


def default_start_method() -> str:
    """``fork`` on Linux (zero-copy bootstrap), the platform default
    elsewhere.

    macOS offers ``fork`` but CPython defaults it to ``spawn`` for a
    reason: forking a parent that has loaded system frameworks is
    crash-prone, and a worker that aborts on its first library call
    would surface here as every partition silently losing its events.
    """
    if sys.platform == "linux":
        return "fork"
    return multiprocessing.get_start_method()


class WorkerHandle:
    """Parent-side handle on one worker process."""

    __slots__ = ("key", "process", "wire", "dead", "arena")

    def __init__(self, key, process, wire) -> None:
        #: Caller-chosen identity (partition id, shard index, ...).
        self.key = key
        self.process = process
        #: The parent's endpoint of the worker's
        #: :class:`~repro.cluster.shm.Wire` — every message to or from
        #: the worker, the stop included, goes through it.
        self.wire = wire
        #: Set once the worker is known dead; never unset (no retries).
        self.dead = False
        #: Optional parent-side reader of a serving arena the worker
        #: writes (:class:`repro.serving.cache.ServingCacheReader`).
        #: ``stop_workers`` pins its current generation *before* posting
        #: the stop, so the mapping outlives the worker's unlink and
        #: post-shutdown reads (summaries, snapshots) stay valid.
        self.arena = None

    def alive(self) -> bool:
        """Whether the worker is still running (a death is remembered)."""
        if not self.dead and not self.process.is_alive():
            self.dead = True
        return not self.dead

    def send(self, message: tuple, framer=None) -> bool:
        """Send *message* down the wire; False once the worker is dead."""
        if not self.wire.send(message, framer):
            self.dead = True
        return not self.dead

    def recv(self, decode) -> tuple | None:
        """One reply off the wire, or None once the worker is known dead."""
        reply = self.wire.recv(decode)
        if reply is None:
            self.dead = True
        return reply


def _worker_bootstrap(target, holder, wire_spec) -> None:
    """Run *target* on the state popped from its one-shot holder."""
    wire = wire_spec.attach()
    try:
        target(holder.pop(), wire)
    finally:
        wire.close()


def spawn_worker(
    context,
    key,
    target: Callable,
    state,
    name: str,
    wire,
) -> WorkerHandle:
    """Start one daemon worker running ``target(state, worker_wire)``.

    *wire* is the parent's freshly created endpoint; the worker attaches
    the mirror endpoint from its spec.  *state* travels in a one-shot
    holder the parent empties immediately after ``start()`` returns — by
    then the child owns its copy (fork) or the pickled bytes are already
    written (spawn) — so the parent's only live reference to the worker's
    state is the wire.  A worker that fails to start takes its wire's
    segments with it.
    """
    holder = [state]
    process = context.Process(
        target=_worker_bootstrap,
        args=(target, holder, wire.spec),
        daemon=True,
        name=name,
    )
    # A forked child's collector skips frozen objects, so it never dirties
    # (copies on write) the heap pages it inherits just to traverse them.
    gc.freeze()
    try:
        process.start()
    except Exception:
        wire.close()
        raise
    finally:
        gc.unfreeze()
    holder.clear()
    wire.peer_alive = process.is_alive
    return WorkerHandle(key, process, wire)


def wire_stats(workers: list[WorkerHandle]) -> dict[str, float]:
    """Wire telemetry summed over *workers* — one shape on every wire.

    ``fallback_rate`` is the fraction of *framed* payloads (batches and
    their replies, either direction) that took the pickle lane: all of
    them on a queue-only wire (a host without ``/dev/shm``), and on a
    ring wire the share that overflowed a slot — the figure to watch
    when sizing :data:`~repro.cluster.shm.DEFAULT_SLOT_BYTES`.  Control
    messages never have a frame form and are counted separately.  Slab
    occupancy skips dead workers: frames nobody will ever consume are
    not backlog.
    """
    frames = sum(w.wire.frames_shm for w in workers)
    fallbacks = sum(w.wire.frames_fallback for w in workers)
    total = frames + fallbacks
    return {
        "frames_shm": float(frames),
        "frames_fallback": float(fallbacks),
        "control_pickle": float(sum(w.wire.control_pickle for w in workers)),
        "fallback_rate": (fallbacks / total) if total else 0.0,
        "slab_slots": float(sum(2 * w.wire.slots for w in workers)),
        "slab_occupancy": float(
            sum(w.wire.occupancy() for w in workers if not w.dead)
        ),
    }


def stop_workers(workers: list[WorkerHandle]) -> None:
    """Stop, join, and reap *workers*: graceful first, then forceful.

    The stop travels down each worker's wire like any other message and
    is never answered.  Every wire is closed after its worker's join —
    including workers that died mid-batch, so abnormal exits reclaim the
    ring segments too.
    """
    for worker in workers:
        if worker.arena is not None:
            try:  # keep the final generation mapped past the unlink
                worker.arena.pin()
            except Exception:
                pass
        if not worker.alive():
            continue
        try:
            worker.wire.send(("stop",), timeout=STOP_SEND_TIMEOUT_SECONDS)
        except (ValueError, OSError):  # queue already torn down
            pass
    for worker in workers:
        worker.process.join(timeout=JOIN_TIMEOUT_SECONDS)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=JOIN_TIMEOUT_SECONDS)
        worker.wire.close()
