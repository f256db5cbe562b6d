"""Columnar wire codecs for cross-process transports.

When partitions (or delivery shards) move into worker processes, batches
must cross a ``multiprocessing`` queue.  Pickling the boxed object graph —
one :class:`~repro.core.events.EdgeEvent` or
:class:`~repro.core.recommendation.Recommendation` per element — would
reintroduce exactly the per-item cost the columnar hot path removed, so
the wire format is the columns themselves.

Event batches serialize as their four flat arrays.  Recommendation
batches are *flattened before pickling*: a burst batch can emit tens of
thousands of small groups, and pickling one tuple (with two tiny numpy
arrays) per group costs more than the detection did — so the group-table
codec packs every group's recipients into **one** concatenated ``int64``
column, the witness columns into another, and the per-group scalars
(candidate, creation time, triggering event's batch position, action
code, interned motif id) into parallel arrays.  One codec serves both
directions a candidate batch travels: a partition's reply to the broker
(one batch per partition per event batch) and a delivery shard's
request.  Either is ~ten array pickles regardless of group count, and
the decoder rebuilds the groups as zero-copy slices of the flat columns.

The codecs are intentionally dumb tuples (pickled by the queue machinery):
no versioning, no schema negotiation — both endpoints are the same build
of this package inside one process tree.

The second half of this module is the *slab frame* codec used by the
worker wire's shared-memory rings (:mod:`repro.cluster.shm`): the same
flat columns, but written directly into a ring slot instead of pickled.
A frame is a 32-byte header (kind, column/blob counts, optional ``now``
timestamp, latency, one integer ``aux``), a column descriptor table
(dtype code + length each), a blob-length table, the blob bytes, then
each column's raw bytes 8-aligned.  ``read_frame(..., copy=False)``
returns columns as **zero-copy views of the slot itself** — valid only
until the ring slot is released — while ``copy=True`` performs one bulk
memcpy and then slices views of the private copy.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch import ACTION_CODES, ACTIONS, EventBatch
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    FlatRecommendations,
    RecommendationBatch,
    RecommendationGroup,
)

_EMPTY_INT64 = np.empty(0, dtype=np.int64)

#: One serialized EventBatch: (timestamps, actors, targets, action_codes).
EventBatchWire = tuple

#: One serialized group table — see :func:`_encode_group_table`.
GroupTableWire = tuple


def encode_event_batch(batch: EventBatch) -> EventBatchWire:
    """The batch as its flat numpy columns (never boxed events)."""
    return (batch.timestamps, batch.actors, batch.targets, batch.actions)


def decode_event_batch(payload: EventBatchWire) -> EventBatch:
    """Re-wrap wire columns as an :class:`EventBatch` (no re-validation).

    The sender validated at construction time; ids and alignment survive a
    queue hop bit for bit.
    """
    timestamps, actors, targets, actions = payload
    return EventBatch(timestamps, actors, targets, actions, validate=False)


def _encode_metadata(sources) -> tuple:
    """Per-source ``(action_codes, motif_codes, motif_names, via_sizes,
    via_values)`` for groups (or boxed recommendations).

    Motif strings are interned per payload (``motif_names[motif_codes[i]]``);
    ``via_values`` concatenates every witness column, sliced back apart
    by ``via_sizes`` on decode.
    """
    n = len(sources)
    action_codes = np.fromiter(
        (ACTION_CODES[g.action] for g in sources), np.uint8, n
    )
    motif_names: list[str] = []
    motif_index: dict[str, int] = {}
    motif_codes = np.empty(n, np.uint16)
    via_sizes = np.empty(n, np.int64)
    via_parts: list[np.ndarray] = []
    for i, source in enumerate(sources):
        motif = source.motif
        code = motif_index.get(motif)
        if code is None:
            code = motif_index[motif] = len(motif_names)
            motif_names.append(motif)
        motif_codes[i] = code
        # tuple or ndarray; both convert without boxing
        via = source._via if type(source) is RecommendationGroup else source.via
        if type(via) is not np.ndarray:
            via = np.asarray(via, dtype=np.int64)
        via_sizes[i] = len(via)
        if len(via):
            via_parts.append(via)
    via_values = np.concatenate(via_parts) if via_parts else _EMPTY_INT64
    return (action_codes, motif_codes, motif_names, via_sizes, via_values)


def _encode_group_table(groups: list[RecommendationGroup]) -> GroupTableWire:
    """Flatten *groups* into parallel per-group columns.

    Layout: ``(sizes, recipients, candidates, created_at, events,
    action_codes, motif_codes, motif_names, via_sizes, via_values)`` where
    ``recipients`` is the concatenation of every group's column in order,
    sliced back apart by ``sizes`` on decode, ``events`` each group's
    :attr:`~repro.core.recommendation.RecommendationGroup.event`, and the
    last five are :func:`_encode_metadata`.
    """
    n = len(groups)
    sizes = np.fromiter((len(g) for g in groups), np.int64, n)
    recipients = (
        np.concatenate([g.recipients for g in groups]) if n else _EMPTY_INT64
    )
    candidates = np.fromiter((g.candidate for g in groups), np.int64, n)
    created_at = np.fromiter((g.created_at for g in groups), np.float64, n)
    events = np.fromiter((g.event for g in groups), np.int64, n)
    return (sizes, recipients, candidates, created_at, events, *_encode_metadata(groups))


def _decode_group_table(payload: GroupTableWire) -> list[RecommendationGroup]:
    """Invert :func:`_encode_group_table` (groups slice the flat columns)."""
    (
        sizes,
        recipients,
        candidates,
        created_at,
        events,
        action_codes,
        motif_codes,
        motif_names,
        via_sizes,
        via_values,
    ) = payload
    groups: list[RecommendationGroup] = []
    offset = 0
    via_offset = 0
    for size, candidate, created, event, action_code, motif_code, via_size in zip(
        sizes.tolist(),
        candidates.tolist(),
        created_at.tolist(),
        events.tolist(),
        action_codes.tolist(),
        motif_codes.tolist(),
        via_sizes.tolist(),
    ):
        groups.append(
            RecommendationGroup(
                recipients[offset:offset + size],
                candidate,
                created,
                motif=motif_names[motif_code],
                action=ACTIONS[action_code],
                via=via_values[via_offset:via_offset + via_size],
                event=event,
            )
        )
        offset += size
        via_offset += via_size
    return groups


def encode_recommendation_batch(batch: RecommendationBatch) -> GroupTableWire:
    """A columnar candidate batch as one flattened group table."""
    return _encode_group_table(batch.groups)


def decode_recommendation_batch(payload: GroupTableWire) -> RecommendationBatch:
    """Invert :func:`encode_recommendation_batch` (empties alias)."""
    groups = _decode_group_table(payload)
    if not groups:
        return EMPTY_RECOMMENDATION_BATCH
    return RecommendationBatch(groups)


def encode_flat_recommendations(flat: FlatRecommendations) -> tuple:
    """Flat winners as their five row columns plus the sources' metadata.

    ``(recipients, candidates, created_at, witnesses, source_index,
    action_codes, motif_codes, motif_names, via_sizes, via_values)`` —
    ten array pickles however many rows or sources.
    """
    return (
        flat.recipients,
        flat.candidates,
        flat.created_at,
        flat.witnesses,
        flat.source_index,
        *_encode_metadata(flat.sources),
    )


def decode_flat_recommendations(payload: tuple) -> FlatRecommendations:
    """Invert :func:`encode_flat_recommendations`.

    Sources come back as recipient-less groups (a group table with empty
    recipient slices): only their ``motif`` / ``action`` / ``via`` are
    ever read, and only for rows that get boxed.
    """
    *columns, action_codes, motif_codes, motif_names, via_sizes, via_values = (
        payload
    )
    blank = np.zeros(len(action_codes), np.int64)
    sources = _decode_group_table(
        (blank, _EMPTY_INT64, blank, blank, blank, action_codes, motif_codes,
         motif_names, via_sizes, via_values)
    )
    return FlatRecommendations(*columns, sources)


# ----------------------------------------------------------------------
# Slab frames (shared-memory ring slots)
# ----------------------------------------------------------------------

#: Frame kinds.  0 is deliberately invalid: a zeroed slot can never be
#: mistaken for a committed frame.
FRAME_PICKLE = 1  #: marker: the real payload follows on the mp queue
FRAME_EVENT_BATCH = 2  #: request: one columnar EventBatch (+ now)
FRAME_GROUPED = 3  #: reply: a partition's RecommendationBatch group table
FRAME_LOST = 4  #: reply: the partition lost the batch (all replicas down)
FRAME_REC_BATCH = 5  #: request: one RecommendationBatch group table (+ now)
FRAME_NOTIFICATIONS = 6  #: reply: delivered notifications + funnel stats
FRAME_FLAT_RECS = 7  #: request: one FlatRecommendations (ranked winners, + now)

#: Every dtype a frame column may carry; a column's descriptor stores its
#: index here.  Order is wire format — append only.
_FRAME_DTYPES = (np.int64, np.float64, np.uint8, np.uint16, np.uint64)
_FRAME_DTYPE_CODES = {np.dtype(d): i for i, d in enumerate(_FRAME_DTYPES)}

_FRAME_HEADER_BYTES = 32
_COL_DESC_BYTES = 16


def _align8(n: int) -> int:
    return (n + 7) & ~7


def _pack_strings(strings) -> bytes:
    """Interned-string table as one blob (no string may be empty)."""
    return "\x00".join(strings).encode("utf-8")


def _unpack_strings(blob: bytes) -> list[str]:
    if not blob:
        return []
    return blob.decode("utf-8").split("\x00")


def write_frame(
    mem: np.ndarray,
    kind: int,
    cols: tuple = (),
    blobs: tuple = (),
    now: float | None = None,
    latency: float = 0.0,
    aux: int = 0,
) -> int | None:
    """Encode one frame into *mem* (a ``uint8`` slot view).

    Returns the frame's byte length, or **None when the frame does not
    fit** — the caller then falls back to the pickle wire (a
    ``FRAME_PICKLE`` marker always fits: it is header-only).  Nothing is
    written on overflow.
    """
    ncols, nblobs = len(cols), len(blobs)
    tables = _FRAME_HEADER_BYTES + _COL_DESC_BYTES * ncols + 8 * nblobs
    offset = tables
    for blob in blobs:
        offset += len(blob)
    offset = _align8(offset)
    col_offsets = []
    for col in cols:
        col_offsets.append(offset)
        offset = _align8(offset + col.nbytes)
    if offset > len(mem):
        return None
    mem[0] = kind
    mem[1] = ncols
    mem[2] = nblobs
    mem[3] = 0 if now is None else 1
    mem[8:16].view(np.float64)[0] = 0.0 if now is None else now
    mem[16:24].view(np.float64)[0] = latency
    mem[24:32].view(np.int64)[0] = aux
    for i, col in enumerate(cols):
        base = _FRAME_HEADER_BYTES + _COL_DESC_BYTES * i
        mem[base] = _FRAME_DTYPE_CODES[col.dtype]
        mem[base + 8:base + 16].view(np.int64)[0] = len(col)
    lengths_base = _FRAME_HEADER_BYTES + _COL_DESC_BYTES * ncols
    blob_offset = tables
    for j, blob in enumerate(blobs):
        mem[lengths_base + 8 * j:lengths_base + 8 * (j + 1)].view(
            np.int64
        )[0] = len(blob)
        if blob:
            mem[blob_offset:blob_offset + len(blob)] = np.frombuffer(
                blob, np.uint8
            )
        blob_offset += len(blob)
    for col, col_offset in zip(cols, col_offsets):
        if len(col):
            mem[col_offset:col_offset + col.nbytes].view(col.dtype)[:] = col
    return offset


def read_frame(
    mem: np.ndarray, copy: bool = False
) -> tuple[int, list[np.ndarray], list[bytes], float | None, float, int]:
    """Decode one frame: ``(kind, cols, blobs, now, latency, aux)``.

    With ``copy=False`` the columns are views **into the slot** — they
    (and everything built zero-copy on top) die when the ring slot is
    released.  ``copy=True`` does one bulk memcpy of the frame first, so
    the returned columns own their storage.
    """
    if copy:
        mem = mem.copy()
    kind = int(mem[0])
    ncols = int(mem[1])
    nblobs = int(mem[2])
    now = float(mem[8:16].view(np.float64)[0]) if mem[3] & 1 else None
    latency = float(mem[16:24].view(np.float64)[0])
    aux = int(mem[24:32].view(np.int64)[0])
    descriptors = []
    for i in range(ncols):
        base = _FRAME_HEADER_BYTES + _COL_DESC_BYTES * i
        descriptors.append(
            (
                _FRAME_DTYPES[int(mem[base])],
                int(mem[base + 8:base + 16].view(np.int64)[0]),
            )
        )
    lengths_base = _FRAME_HEADER_BYTES + _COL_DESC_BYTES * ncols
    offset = lengths_base + 8 * nblobs
    blobs = []
    for j in range(nblobs):
        blob_len = int(
            mem[lengths_base + 8 * j:lengths_base + 8 * (j + 1)].view(
                np.int64
            )[0]
        )
        blobs.append(mem[offset:offset + blob_len].tobytes())
        offset += blob_len
    offset = _align8(offset)
    cols = []
    for dtype, length in descriptors:
        nbytes = length * np.dtype(dtype).itemsize
        cols.append(mem[offset:offset + nbytes].view(dtype))
        offset = _align8(offset + nbytes)
    return kind, cols, blobs, now, latency, aux


# --- typed frames over the generic codec -------------------------------


def frame_event_batch(
    mem: np.ndarray, payload: EventBatchWire, now: float | None
) -> int | None:
    """An encoded event batch as a request frame (None on overflow)."""
    return write_frame(mem, FRAME_EVENT_BATCH, cols=payload, now=now)


def event_batch_from_frame(cols: list[np.ndarray]) -> EventBatch:
    """Re-wrap frame columns as an :class:`EventBatch` (no copy)."""
    return decode_event_batch(tuple(cols))


def _frame_table(
    mem: np.ndarray,
    kind: int,
    payload: tuple,
    now: float | None = None,
    latency: float = 0.0,
) -> int | None:
    """A group-table or flat payload as a frame (None on overflow).

    Every such frame carries its payload's arrays as columns and the
    interned motif names (third from last) as the one string blob.
    """
    *head, motif_names, via_sizes, via_values = payload
    return write_frame(
        mem,
        kind,
        cols=(*head, via_sizes, via_values),
        blobs=(_pack_strings(motif_names),),
        now=now,
        latency=latency,
    )


def frame_recommendation_batch(
    mem: np.ndarray, payload: GroupTableWire, now: float
) -> int | None:
    """An encoded recommendation batch as a delivery request frame."""
    return _frame_table(mem, FRAME_REC_BATCH, payload, now=now)


def frame_partition_reply(
    mem: np.ndarray, payload: GroupTableWire, latency: float
) -> int | None:
    """A partition's encoded reply batch, plus its ack latency, as a frame."""
    return _frame_table(mem, FRAME_GROUPED, payload, latency=latency)


def table_payload_from_frame(cols: list[np.ndarray], blobs: list[bytes]) -> tuple:
    """A frame's columns back as the payload tuple that was framed.

    Inverts the column/blob split of :func:`frame_recommendation_batch`,
    :func:`frame_partition_reply` and :func:`frame_flat_recommendations`,
    so a frame reader can hand on exactly what the pickle lane would have
    delivered.
    """
    *head, via_sizes, via_values = cols
    return (*head, _unpack_strings(blobs[0]), via_sizes, via_values)


def frame_flat_recommendations(
    mem: np.ndarray, payload: tuple, now: float
) -> int | None:
    """An :func:`encode_flat_recommendations` payload as a request frame."""
    return _frame_table(mem, FRAME_FLAT_RECS, payload, now=now)


def flat_recommendations_from_frame(
    cols: list[np.ndarray], blobs: list[bytes]
) -> FlatRecommendations:
    """Invert :func:`frame_flat_recommendations`."""
    return decode_flat_recommendations(table_payload_from_frame(cols, blobs))


def frame_notifications(
    mem: np.ndarray,
    notifications: list,
    stats: tuple[dict[str, int], int],
    delivered_at: float,
) -> int | None:
    """Delivered push notifications + piggybacked funnel stats as a frame.

    The survivors travel as one :func:`encode_flat_recommendations`
    payload.  Every notification in one ``offer_batch`` reply shares its
    delivery time (the funnel's ``now``), so ``delivered_at`` rides in the
    header rather than a column.  ``stats`` is the shard's
    ``(funnel stages, delivered_total)`` pair; the stage table travels as
    an interned key blob plus an ``int64`` count column, and
    ``delivered_total`` as the header's ``aux``.
    """
    stages, delivered_total = stats
    *head, motif_names, via_sizes, via_values = encode_flat_recommendations(
        FlatRecommendations.from_boxed(p.recommendation for p in notifications)
    )
    stage_counts = np.fromiter(stages.values(), np.int64, len(stages))
    return write_frame(
        mem,
        FRAME_NOTIFICATIONS,
        cols=(*head, via_sizes, via_values, stage_counts),
        blobs=(_pack_strings(motif_names), _pack_strings(list(stages))),
        now=delivered_at,
        aux=delivered_total,
    )


def notifications_from_frame(
    cols: list[np.ndarray],
    blobs: list[bytes],
    delivered_at: float,
    delivered_total: int,
) -> tuple[list, tuple[dict[str, int], int]]:
    """Invert :func:`frame_notifications`: boxed survivors + shard stats."""
    from repro.delivery.notifier import PushNotification

    *head, via_sizes, via_values, stage_counts = cols
    survivors = decode_flat_recommendations(
        (*head, _unpack_strings(blobs[0]), via_sizes, via_values)
    )
    notifications = [
        PushNotification(rec, delivered_at=delivered_at) for rec in survivors
    ]
    stats = (
        dict(zip(_unpack_strings(blobs[1]), stage_counts.tolist())),
        delivered_total,
    )
    return notifications, stats
