"""Open-addressing numpy hash tables for the funnel's hot per-pair state.

The dedup and fatigue stages are the funnel's last per-candidate Python
costs and its largest memory consumers on daily horizons: a dict entry
for a ``(recipient, candidate) -> last_sent`` pair costs ~100 bytes and
every probe is an interpreter round-trip.  :class:`Int64KeyTable` packs
the same state into flat numpy columns:

* **keys** — one ``uint64`` per entry; a (recipient, candidate) pair packs
  into a single word as ``recipient << 32 | candidate``
  (:func:`pack_pairs`; both ids must be in ``[0, 2**32)`` — wider ids
  raise ``ValueError``);
* **probe** — splitmix64 of the key selects the home slot in a
  power-of-two capacity; collisions resolve by linear probing, and the
  load factor is capped so probe chains stay short;
* **values** — caller-declared numpy columns (e.g. one ``float64`` time
  per slot for dedup, a small timestamp ring per slot for fatigue),
  reallocated and re-scattered together with the keys on rebuild;
* **grow + compaction** — :meth:`Int64KeyTable.reserve` is amortized:
  when an insert would push occupancy past the load cap it first drops
  entries the caller marks dead (horizon-based compaction — expired
  pairs on a daily window) and only grows the capacity if live entries
  genuinely need the room.

Lookups and inserts come in bit-identical scalar (:meth:`~Int64KeyTable.find`,
:meth:`~Int64KeyTable.upsert`) and vectorized (:meth:`~Int64KeyTable.lookup`,
:meth:`~Int64KeyTable.insert`) forms, so the filters' per-candidate
``allow`` and batched ``allow_mask`` paths share one table.

>>> import numpy as np
>>> table = Int64KeyTable({"time": (np.float64, 0)}, capacity=8)
>>> keys = pack_pairs(np.array([1, 2]), np.array([7, 7]))
>>> slots = table.insert(keys)
>>> table.columns["time"][slots] = 100.0
>>> int(table.lookup(keys[1:])[0]) == int(slots[1])
True
>>> table.find(pack_pair(3, 7))
-1
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.util.hashing import splitmix64, splitmix64_array
from repro.util.validation import require

#: Pair ids must fit 32 bits each to pack into one 64-bit key.
PAIR_ID_LIMIT = 1 << 32

#: Fraction of the capacity that may be occupied before a rebuild.
MAX_LOAD = 0.6

_DEFAULT_CAPACITY = 1024


def pack_pair(recipient: int, candidate: int) -> int:
    """One (recipient, candidate) pair as a single 64-bit key."""
    if not (0 <= recipient < PAIR_ID_LIMIT and 0 <= candidate < PAIR_ID_LIMIT):
        raise ValueError(
            f"pair ids must be in [0, 2**32) to pack into one key, got "
            f"({recipient}, {candidate})"
        )
    return (recipient << 32) | candidate


def pack_pairs(recipients: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Columnar :func:`pack_pair`: two ``int64`` columns -> ``uint64`` keys."""
    if len(recipients):
        low = min(int(recipients.min()), int(candidates.min()))
        high = max(int(recipients.max()), int(candidates.max()))
        if low < 0 or high >= PAIR_ID_LIMIT:
            raise ValueError(
                "pair ids must be in [0, 2**32) to pack into one key, got "
                f"values in [{low}, {high}]"
            )
    return (recipients.astype(np.uint64) << np.uint64(32)) | candidates.astype(
        np.uint64
    )


def unpack_pairs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_pairs` into (recipients, candidates) ``int64``."""
    recipients = (keys >> np.uint64(32)).astype(np.int64)
    candidates = (keys & np.uint64(PAIR_ID_LIMIT - 1)).astype(np.int64)
    return recipients, candidates


class Int64KeyTable:
    """Open-addressing ``uint64`` -> numpy-columns hash table.

    Args:
        value_columns: ``{name: (dtype, width)}`` value columns allocated
            alongside the keys; ``width == 0`` means a flat ``(capacity,)``
            column, ``width > 0`` a ``(capacity, width)`` matrix (e.g. a
            per-entry timestamp ring).
        capacity: initial slot count; must be a power of two.
        allocator: optional backing hook, ``allocator(capacity, specs) ->
            (keys, filled, columns)`` returning *zero-initialized* arrays
            of the schema's shapes.  The serving cache uses it to carve
            the table out of a shared-memory arena so another process can
            probe the same slots; the default heap-numpy backing stays
            untouched for the funnel's pair tables.  Called once at
            construction and again on every rebuild, so an arena-backed
            table publishes a fresh generation per rebuild.

    The table only ever removes entries wholesale, during
    :meth:`reserve`'s rebuild or an explicit :meth:`compact` — there are
    no tombstones, so the linear probe invariant (no empty slot between a
    key's home and its slot) always holds.
    """

    def __init__(
        self,
        value_columns: dict[str, tuple[np.dtype, int]],
        capacity: int = _DEFAULT_CAPACITY,
        allocator: Callable | None = None,
    ) -> None:
        require(
            capacity >= 2 and capacity & (capacity - 1) == 0,
            f"capacity must be a power of two >= 2, got {capacity}",
        )
        self._specs = dict(value_columns)
        self._allocator = allocator
        self._allocate(capacity)

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        self._size = 0
        if self._allocator is not None:
            self._keys, self._filled, self.columns = self._allocator(
                capacity, self._specs
            )
            return
        self._keys = np.zeros(capacity, dtype=np.uint64)
        self._filled = np.zeros(capacity, dtype=bool)
        self.columns: dict[str, np.ndarray] = {
            name: np.zeros(
                capacity if width == 0 else (capacity, width), dtype=dtype
            )
            for name, (dtype, width) in self._specs.items()
        }

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Current slot count (power of two)."""
        return self._capacity

    # ------------------------------------------------------------------
    # Scalar probes (the filters' per-candidate ``allow`` path)
    # ------------------------------------------------------------------

    def find(self, key: int) -> int:
        """The slot holding *key*, or -1 when absent."""
        if self._size == 0:
            return -1
        mask = self._capacity - 1
        slot = splitmix64(key) & mask
        keys, filled = self._keys, self._filled
        while filled[slot]:
            if keys[slot] == key:
                return slot
            slot = (slot + 1) & mask
        return -1

    def upsert(self, key: int) -> tuple[int, bool]:
        """The slot for *key*, inserting an empty entry when absent.

        Returns ``(slot, inserted)``; a fresh slot's value columns are
        zeroed.  Reserves capacity itself, so the returned slot is valid
        against the (possibly reallocated) current :attr:`columns`.
        """
        self.reserve(1)
        mask = self._capacity - 1
        slot = splitmix64(key) & mask
        keys, filled = self._keys, self._filled
        while filled[slot]:
            if keys[slot] == key:
                return slot, False
            slot = (slot + 1) & mask
        filled[slot] = True
        keys[slot] = key
        self._size += 1
        return slot, True

    # ------------------------------------------------------------------
    # Vectorized probes (the filters' ``allow_mask`` path)
    # ------------------------------------------------------------------

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Slots for a ``uint64`` key column (-1 where absent).

        Runs as probe *rounds*: every unresolved key advances one slot
        per round, so the loop count is the longest probe chain (short,
        because :data:`MAX_LOAD` bounds occupancy), not the key count.
        """
        n = len(keys)
        result = np.full(n, -1, dtype=np.int64)
        if n == 0 or self._size == 0:
            return result
        mask = self._capacity - 1
        slots = (splitmix64_array(keys) & np.uint64(mask)).astype(np.int64)
        idx = np.arange(n)
        active = keys
        while idx.size:
            filled = self._filled[slots]
            hit = filled & (self._keys[slots] == active)
            result[idx[hit]] = slots[hit]
            cont = filled & ~hit
            if not cont.any():
                break
            idx = idx[cont]
            active = active[cont]
            slots = (slots[cont] + 1) & mask
        return result

    def insert(self, keys: np.ndarray) -> np.ndarray:
        """Insert *distinct, absent* keys in bulk; returns their slots.

        Collisions between the new keys themselves resolve in rounds: at
        each round the lowest-index contender claims a free slot and the
        rest advance — every key still lands on its own linear probe
        chain, so later :meth:`lookup`/:meth:`find` calls see it.
        """
        n = len(keys)
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out
        self.reserve(n)
        mask = self._capacity - 1
        slots = (splitmix64_array(keys) & np.uint64(mask)).astype(np.int64)
        idx = np.arange(n)
        active = keys
        while idx.size:
            free_idx = np.flatnonzero(~self._filled[slots])
            placed = np.zeros(idx.size, dtype=bool)
            if free_idx.size:
                _, first = np.unique(slots[free_idx], return_index=True)
                winners = free_idx[first]
                won_slots = slots[winners]
                self._filled[won_slots] = True
                self._keys[won_slots] = active[winners]
                out[idx[winners]] = won_slots
                placed[winners] = True
            keep = ~placed
            idx = idx[keep]
            active = active[keep]
            slots = (slots[keep] + 1) & mask
        self._size += n
        return out

    # ------------------------------------------------------------------
    # Amortized grow + horizon compaction
    # ------------------------------------------------------------------

    def reserve(
        self,
        extra: int,
        keep: Callable[[], np.ndarray] | None = None,
    ) -> bool:
        """Make room for *extra* more entries; True when a rebuild ran.

        No-op while ``size + extra`` fits under the load cap.  Otherwise
        the table rebuilds: *keep* (a lazily-evaluated boolean mask over
        the current capacity — lazy so the common fast path never pays
        for it) marks which live entries survive — the horizon-based
        compaction hook — and the capacity doubles only as far as the
        survivors plus *extra* actually require.  Rebuilding reallocates
        :attr:`columns`; callers must re-read them afterwards.
        """
        limit = int(self._capacity * MAX_LOAD)
        if self._size + extra <= limit:
            return False
        survivors = self._filled
        if keep is not None:
            survivors = survivors & keep()
        kept_slots = np.flatnonzero(survivors)
        capacity = self._capacity
        while len(kept_slots) + extra > int(capacity * MAX_LOAD):
            capacity *= 2
        self._rebuild(kept_slots, capacity)
        return True

    def compact(self, keep: np.ndarray) -> int:
        """Drop live entries where *keep* is False; returns entries dropped.

        The eager form of :meth:`reserve`'s lazy compaction hook: a
        non-growing rebuild at the current capacity, for callers that
        want the space back *now* (TTL eviction of dormant serving rows)
        rather than at the next growth.  A no-op (no rebuild, columns
        stay valid) when every live entry survives.
        """
        survivors = self._filled & keep
        dropped = self._size - int(survivors.sum())
        if dropped == 0:
            return 0
        self._rebuild(np.flatnonzero(survivors), self._capacity)
        return dropped

    def _rebuild(self, kept_slots: np.ndarray, capacity: int) -> None:
        old_keys = self._keys[kept_slots]
        old_values = {
            name: column[kept_slots] for name, column in self.columns.items()
        }
        self._allocate(capacity)
        new_slots = self.insert(old_keys)
        for name, values in old_values.items():
            self.columns[name][new_slots] = values

    # ------------------------------------------------------------------
    # Snapshots (delivery-tier restarts)
    # ------------------------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The live entries as owned arrays (the in-memory snapshot form).

        Occupied slots' keys plus one ``column_<name>`` array per value
        column, which the durability tier's snapshot store deltas.  Slot
        positions are an artifact of the current capacity and are *not*
        preserved; a restore re-probes.
        """
        slots = self.filled_slots()
        payload: dict[str, np.ndarray] = {"keys": self._keys[slots].copy()}
        for name, column in self.columns.items():
            payload[f"column_{name}"] = column[slots].copy()
        return payload

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Insert a :meth:`state_arrays` payload into this (fresh) table.

        Raises:
            ValueError: when the payload's columns do not match the schema.
        """
        saved = {
            name[len("column_"):]: values
            for name, values in arrays.items()
            if name.startswith("column_")
        }
        if set(saved) != set(self.columns):
            raise ValueError(
                f"state columns {sorted(saved)} do not match the "
                f"declared schema {sorted(self.columns)}"
            )
        slots = self.insert(arrays["keys"].astype(np.uint64, copy=False))
        for name, values in saved.items():
            column = self.columns[name]
            if column[slots].shape != values.shape or column.dtype != values.dtype:
                raise ValueError(
                    f"state column {name!r} has shape {values.shape} / "
                    f"dtype {values.dtype}, schema expects "
                    f"{column[slots].shape} / {column.dtype}"
                )
            column[slots] = values

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def filled_slots(self) -> np.ndarray:
        """Indices of occupied slots (for state snapshots in tests)."""
        return np.flatnonzero(self._filled)

    def keys_at(self, slots: np.ndarray) -> np.ndarray:
        """The ``uint64`` keys stored at *slots*."""
        return self._keys[slots]

    def nbytes(self) -> int:
        """Approximate resident bytes across keys and value columns."""
        total = self._keys.nbytes + self._filled.nbytes
        for column in self.columns.values():
            total += column.nbytes
        return total
