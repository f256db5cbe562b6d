"""Output checks run by the one command after the measured window.

Three kinds, none of them timed:

(a) ``fleet_shm`` against its in-process twin (``hub_burst``'s
    deployment): same delivered multiset, summed funnel counts and served
    top-k after the same prefix of flushes.  The suite additionally
    compares the two workloads' *whole-run* digests at the same seed.
(b) every in-process workload against the boxed per-event reference
    lane — a 1-partition cluster fed ``broker.process_event`` one event
    at a time, ``TopKPerUserBuffer.offer`` and ``DeliveryPipeline.offer``
    per candidate — at the same flush boundaries and flush clocks.
(c) conservation: events in = WAL events logged = events the broker
    routed; nothing lost; every read answered.

The prefix ends where the main run captured its state: after the first
flush that brings the gathered candidates to :data:`CANDIDATE_BUDGET`, or
after :data:`PREFIX_SHARE` of the flushes, whichever comes first — long
enough to reach into the first burst, short enough that the boxed lane
costs under a tenth of the run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.bench.workloads import BENCH_D_CAP, BENCH_PARAMS
from repro.cluster import Cluster, ClusterConfig
from repro.delivery import DeliveryPipeline, TopKPerUserBuffer

from harness import Deployment, LoopRecord, run_flushes
from workloads import RANK_K, WORKLOADS

CANDIDATE_BUDGET = 100_000
PREFIX_SHARE = 0.2


@dataclass
class Outputs:
    """What a deployment has produced after some prefix of flushes."""

    #: Sorted delivered ``(recipient, candidate, created_at)`` rows.
    delivered: np.ndarray
    funnel: dict[str, int]
    #: Canonical served rows, or None when the lane keeps no cache.
    served: tuple[np.ndarray, ...] | None


def delivered_rows(notifications: list) -> np.ndarray:
    """The delivered multiset as a lexicographically sorted (n, 3) array."""
    n = len(notifications)
    rows = np.empty((n, 3), dtype=np.float64)  # ids < 2**53: exact
    for i, pushed in enumerate(notifications):
        rec = pushed.recommendation
        rows[i] = (rec.recipient, rec.candidate, rec.created_at)
    return rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]


def served_rows(state: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """A ``state_arrays()`` payload in slot-order-free form (users
    ascending, entries past each row's count blanked)."""
    users = state["users"].astype(np.int64)
    order = np.argsort(users, kind="stable")
    count = state["count"][order]
    k = state["candidate"].shape[1]
    live = np.arange(k)[None, :] < count[:, None]
    return (
        users[order],
        count,
        np.where(live, state["candidate"][order], 0),
        np.where(live, state["score"][order], 0.0),
        np.where(live, state["created_at"][order], 0.0),
    )


def digest(outputs: Outputs) -> dict[str, str]:
    """Short hashes of each output, for cross-run comparison."""
    def sha(*arrays: np.ndarray) -> str:
        h = hashlib.sha256()
        for array in arrays:
            h.update(np.ascontiguousarray(array).tobytes())
        return h.hexdigest()[:16]

    funnel = ",".join(f"{k}={v}" for k, v in sorted(outputs.funnel.items()))
    return {
        "delivered": sha(outputs.delivered),
        "funnel": funnel,
        "served": "" if outputs.served is None else sha(*outputs.served),
    }


def differences(label: str, got: Outputs, want: Outputs) -> list[str]:
    """Human-readable mismatches between two lanes' outputs."""
    problems = []
    if got.delivered.shape != want.delivered.shape or not np.array_equal(
        got.delivered, want.delivered
    ):
        problems.append(
            f"{label}: delivered multiset differs "
            f"({len(got.delivered)} vs {len(want.delivered)} rows)"
        )
    if got.funnel != want.funnel:
        problems.append(
            f"{label}: funnel counts differ ({got.funnel} vs {want.funnel})"
        )
    if got.served is not None and want.served is not None:
        same = all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(got.served, want.served)
        )
        if not same:
            problems.append(
                f"{label}: served top-k differs ({len(got.served[0])} vs "
                f"{len(want.served[0])} users)"
            )
    return problems


def reference_lane(workload, inputs, flushes: int) -> Outputs:
    """Replay ``flushes`` flushes through the boxed per-event lane."""
    notifications: list = []
    with Cluster.build(
        inputs.snapshot,
        BENCH_PARAMS,
        ClusterConfig(num_partitions=1, max_edges_per_target=BENCH_D_CAP),
    ) as cluster:
        process_event = cluster.broker.process_event
        ranker = TopKPerUserBuffer(k=RANK_K) if workload.ranked else None
        delivery = DeliveryPipeline()
        offer = delivery.offer
        for i in range(flushes):
            now = inputs.nows[i]
            batch = inputs.events.slice(inputs.bounds[i], inputs.bounds[i + 1])
            candidates = []
            for event in batch.to_events():
                candidates.extend(process_event(event, now)[0])
            if ranker is not None:
                for rec in candidates:
                    ranker.offer(rec)
                candidates = ranker.flush(now)
            for rec in candidates:
                pushed = offer(rec, now)
                if pushed is not None:
                    notifications.append(pushed)
    return Outputs(
        delivered_rows(notifications), dict(delivery.funnel.stages), None
    )


def twin_lane(inputs, flushes: int) -> Outputs:
    """``hub_burst``'s in-process deployment over the same prefix."""
    twin = Deployment(WORKLOADS["hub_burst"], inputs.snapshot)
    try:
        record = LoopRecord()
        run_flushes(twin, inputs, 0, flushes, record)
        return Outputs(
            delivered_rows(record.notifications),
            twin.funnel_totals(),
            served_rows(twin.serving.state_arrays()),
        )
    finally:
        twin.close()


def conservation(
    events_in: int,
    events_logged: int,
    events_routed: int,
    lost: int,
    reads_raised: int,
) -> list[str]:
    problems = []
    if not events_in == events_logged == events_routed:
        problems.append(
            f"conservation: {events_in} events in, {events_logged} logged, "
            f"{events_routed} routed"
        )
    if lost:
        problems.append(f"conservation: {lost} events or candidates lost")
    if reads_raised:
        problems.append(f"conservation: {reads_raised} reads raised")
    return problems
