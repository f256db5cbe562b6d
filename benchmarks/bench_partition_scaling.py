"""E5 / E18 / E19 — Partition scaling: the paper's "partition by the A's" design.

Paper: "each partition (currently, 20) holds a disjoint set of source
vertices for the S data structure ... all adjacency list intersections are
local to each partition"; and the acknowledged cost: "each partition needs
to keep the complete D data structure ... every partition needs to handle
the entire stream of edge creation events".

Two experiments share this module:

* **E5 (``mode=simulated``)** — the single-process fan-out sweep: every
  partition's work runs serially in one interpreter, so the recorded
  ``slowdown_vs_p1`` *is* the fan-out penalty and verifies the design
  invariants (identical results at every P, disjoint S shards, one D per
  process: the partitions share it, so D is inserted and scanned once and
  its memory is flat in P; a worker fleet pays ``d_memory_mb`` x P).
* **E18 (``mode=shm``)** — the real-wall-clock sweep over
  ``WorkerTransport``'s wire: each partition in its own worker process,
  batches pipelined through the columnar wire, candidates counted without
  boxing.  Records ``speedup_vs_p1`` (and the host ``cpu_count`` needed to
  interpret it) to ``BENCH_ingest.json``.  Two workload shapes: the pure
  cold firehose — where full-D-replication means every worker repeats the
  same insert-dominated work and *no* transport can buy a speedup (a
  paper-faithful negative result worth recording) — and the hub-burst
  firehose, where k-overlap intersections over sharded follower lists
  dominate and partition-parallelism genuinely pays.  The >1x speedup
  assertion is gated on the host actually having cores to run workers on.

* **E19 (``workload=hub-burst-wire``)** — the wire-overhead sweep: the
  same hub-burst stream driven through ``inprocess`` (zero-wire floor)
  and ``shm`` (zero-copy ring slabs), interleaved so machine noise
  cancels.  Records ``wire_overhead_ratio`` — wall clock over the
  in-process wall clock at the same P.  The wire is ring-fronted wherever
  ``/dev/shm`` exists, so no host that can run this sweep can select a
  queue-only wire to compare against.

The modes are labelled in ``params`` so ``check_regression.py`` never
compares a simulated fan-out penalty against a measured parallel speedup.
"""

import os
import time

import pytest

from repro.bench.workloads import (
    bench_cluster,
    bench_engine,
    bursty_workload,
    firehose_stream_config,
    hub_burst_stream_config,
    interleaved_best_of,
)
from repro.core.batch import iter_event_batches
from repro.gen import TwitterGraphConfig, generate_event_stream, generate_follow_graph

PARTITION_COUNTS = [1, 2, 4, 8, 20]

#: Per-P ingest seconds accumulated across the parametrized sweep so each
#: configuration can record its slowdown relative to P=1 (a machine-
#: independent metric the regression gate can track).
_INGEST_SECONDS: dict[int, float] = {}


@pytest.fixture(scope="module")
def workload():
    return bursty_workload(
        num_users=8_000, duration=600.0, background_rate=6.0, burst_actors=80
    )


@pytest.fixture(scope="module")
def reference(workload):
    snapshot, events = workload
    engine = bench_engine(snapshot, track_latency=False)
    recs = [rec for event in events for rec in engine.process(event)]
    return sorted((r.created_at, r.recipient, r.candidate) for r in recs)


@pytest.fixture(scope="module")
def scaling_table(report):
    table = report.table(
        "E5",
        "partition scaling, single-process simulation (paper production: P=20)",
        [
            "partitions",
            "build s",
            "ingest s",
            "S edges total",
            "D memory (distinct copies)",
            "results",
        ],
    )
    table.add_note(
        "identical output at every P: intersections are partition-local; "
        "in-process partitions share one D, so D memory is flat in P (a "
        "worker fleet holds one copy per worker: d_memory_mb x P); S total "
        "stays constant"
    )
    return table


@pytest.mark.parametrize("num_partitions", PARTITION_COUNTS)
def test_partition_count(
    benchmark, workload, reference, scaling_table, num_partitions, report
):
    snapshot, events = workload
    started = time.perf_counter()
    cluster = bench_cluster(snapshot, num_partitions=num_partitions)
    build_seconds = time.perf_counter() - started

    def ingest():
        cluster.prune(float("inf"))
        out = []
        for event in events:
            out.extend(cluster.process_event(event))
        return out

    recs = benchmark.pedantic(ingest, rounds=1, iterations=1)
    got = sorted((r.created_at, r.recipient, r.candidate) for r in recs)
    assert got == reference, f"P={num_partitions} changed the result set"

    s_edges = sum(
        rs.replicas[0].engine.static_index.num_edges
        for rs in cluster.replica_sets
    )
    d_memory = cluster.memory_report()["dynamic_index"]
    scaling_table.add_row(
        num_partitions,
        f"{build_seconds:.3f}",
        f"{benchmark.stats.stats.mean:.2f}",
        s_edges,
        f"{d_memory / 1e6:.1f} MB",
        f"{len(got)} (identical)",
    )
    ingest_seconds = benchmark.stats.stats.mean
    _INGEST_SECONDS[num_partitions] = ingest_seconds
    metrics = {
        # The offline S load: one columnar pass builds all P shards.
        "build_seconds": round(build_seconds, 4),
        "ingest_seconds": round(ingest_seconds, 4),
        "events_per_sec": round(len(events) / ingest_seconds, 1),
        "s_edges_total": s_edges,
        "d_memory_mb": round(d_memory / 1e6, 2),
    }
    if 1 in _INGEST_SECONDS:
        # The single-process fan-out penalty, machine-independent: every
        # partition sees every event, but the shared D is inserted and
        # scanned once, so only the per-partition k-overlap grows with P.
        metrics["slowdown_vs_p1"] = round(ingest_seconds / _INGEST_SECONDS[1], 3)
    report.record(
        "partition_scaling",
        {
            "partitions": num_partitions,
            "workload": "bursty",
            "num_users": snapshot.num_users,
            "mode": "simulated",
        },
        metrics,
    )


# ---------------------------------------------------------------------------
# E18 — real wall clock over worker processes
# ---------------------------------------------------------------------------

PROCESS_PARTITION_COUNTS = [1, 2, 4]
PROCESS_BATCH_SIZE = 512
PROCESS_PIPELINE_DEPTH = 4


def _drive_unboxed(cluster, events) -> int:
    """Pipelined submit/gather counting candidates without boxing them.

    The throughput measurement must not pay the parent-side cost of
    materializing every raw candidate as a ``Recommendation`` — counting
    columnar group lengths is what a production broker forwarding batches
    downstream would do.
    """
    total = 0
    inflight = 0
    broker = cluster.broker
    for batch in iter_event_batches(events, PROCESS_BATCH_SIZE):
        broker.submit_batch(batch)
        inflight += 1
        if inflight >= PROCESS_PIPELINE_DEPTH:
            replies, _ = broker.gather_batch()
            inflight -= 1
            total += sum(len(reply) for reply in replies)
    while inflight:
        replies, _ = broker.gather_batch()
        inflight -= 1
        total += sum(len(reply) for reply in replies)
    return total


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def process_snapshot():
    return generate_follow_graph(
        TwitterGraphConfig(num_users=20_000, mean_followings=25.0, seed=99)
    )


@pytest.mark.parametrize(
    "workload_name, stream_config_factory",
    [
        ("firehose-cold", firehose_stream_config),
        ("firehose-hub-burst", hub_burst_stream_config),
    ],
)
def test_process_transport_wall_clock(
    process_snapshot, workload_name, stream_config_factory, report
):
    snapshot = process_snapshot
    events = generate_event_stream(
        stream_config_factory(num_users=snapshot.num_users, duration=900.0)
    )
    cores = _usable_cores()

    expected_total = len(
        bench_engine(snapshot, track_latency=False).process_stream(
            events, batch_size=PROCESS_BATCH_SIZE
        )
    )

    table = report.table(
        "E18",
        f"partition scaling, worker processes ({workload_name}, "
        f"{cores} usable cores)",
        ["partitions", "wall s", "events/sec", "speedup vs P=1", "candidates"],
    )
    table.add_note(
        "full D replication: the cold firehose's insert-dominated work is "
        "repeated in every worker (no transport can parallelize it); the "
        "hub-burst shape is intersection-dominated and shards ~1/P"
    )
    elapsed_by_p: dict[int, float] = {}
    for num_partitions in PROCESS_PARTITION_COUNTS:
        with bench_cluster(
            snapshot, num_partitions=num_partitions, transport="shm"
        ) as cluster:
            best = float("inf")
            # Round 1 absorbs fork/import cold starts; best-of keeps the
            # warm rounds.  The prune resets every worker's D between
            # rounds so each repetition detects over identical state.
            for _round in range(3):
                cluster.prune(float("inf"))
                started = time.perf_counter()
                total = _drive_unboxed(cluster, events)
                best = min(best, time.perf_counter() - started)
        assert total == expected_total, (
            f"P={num_partitions} worker transport changed the candidate count"
        )
        elapsed_by_p[num_partitions] = best
        speedup = elapsed_by_p[1] / best
        table.add_row(
            num_partitions,
            f"{best:.2f}",
            f"{len(events) / best:,.0f}",
            f"{speedup:.2f}x",
            total,
        )
        report.record(
            "ingest",
            {
                "workload": workload_name,
                "mode": "shm",
                "partitions": num_partitions,
                "events": len(events),
                "batch_size": PROCESS_BATCH_SIZE,
            },
            {
                "ingest_seconds": round(best, 4),
                "events_per_sec": round(len(events) / best, 1),
                "speedup_vs_p1": round(speedup, 3),
                "cpu_count": cores,
            },
        )

    if workload_name == "firehose-hub-burst":
        if cores >= 4:
            assert elapsed_by_p[4] < elapsed_by_p[1], (
                "worker-process partitions showed no wall-clock speedup at "
                f"P=4 on {cores} cores for the intersection-dominated workload"
            )
        else:
            table.add_note(
                f"only {cores} usable core(s): speedup assertion skipped — "
                "workers time-share one CPU, so the recorded numbers "
                "measure transport overhead, not parallelism"
            )


# ---------------------------------------------------------------------------
# E19 — wire overhead: shared-memory rings vs. direct calls
# ---------------------------------------------------------------------------

E19_PARTITION_COUNTS = [1, 2, 4]
E19_USERS = 8_000
E19_DURATION = 240.0


def test_transport_wire_overhead(report):
    """E19 — what does the wire itself cost at each partition count?

    The same intersection-dominated hub-burst stream drives both
    transports interleaved (machine noise hits each equally):
    ``inprocess`` is the zero-wire floor, ``shm`` writes columns straight
    into ring slots.  ``wire_overhead_ratio`` (wall / in-process wall at
    the same P) is the machine-independent number the regression gate
    watches.
    """
    from repro.cluster import shm_available

    if not shm_available():  # pragma: no cover - exercised on odd hosts
        pytest.skip("POSIX shared memory unavailable on this host")

    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=E19_USERS, mean_followings=25.0, seed=77)
    )
    events = generate_event_stream(
        hub_burst_stream_config(num_users=E19_USERS, duration=E19_DURATION)
    )
    cores = _usable_cores()
    expected_total = len(
        bench_engine(snapshot, track_latency=False).process_stream(
            events, batch_size=PROCESS_BATCH_SIZE
        )
    )

    table = report.table(
        "E19",
        f"transport wire overhead, hub-burst firehose ({len(events)} "
        f"events, {cores} usable cores)",
        ["partitions", "transport", "wall s", "overhead vs inprocess",
         "shm fallback rate"],
    )
    table.add_note(
        "overhead = wall / in-process wall at the same P: the wire's own "
        "cost (slab writes, plus the pickle lane for overflowing frames)"
    )

    best_by_p: dict[int, dict[str, float]] = {}
    for num_partitions in E19_PARTITION_COUNTS:
        clusters = {
            transport: bench_cluster(
                snapshot, num_partitions=num_partitions, transport=transport
            )
            for transport in ("inprocess", "shm")
        }

        def runner(cluster):
            def run():
                cluster.prune(float("inf"))
                started = time.perf_counter()
                total = _drive_unboxed(cluster, events)
                return time.perf_counter() - started, total
            return run

        try:
            # Untimed warmup: absorbs fork/import cold starts and the
            # first-touch page faults of every ring slot (the slabs are
            # tens of MB of fresh /dev/shm pages) so round 1 isn't
            # charged for them.  5 rounds: best-of on a noisy host.
            warmup = events[: PROCESS_BATCH_SIZE * 8]
            for cluster in clusters.values():
                _drive_unboxed(cluster, warmup)
            best, totals = interleaved_best_of(
                {name: runner(c) for name, c in clusters.items()}, rounds=5
            )
            fallback_rate = clusters["shm"].transport.wire_stats()[
                "fallback_rate"
            ]
        finally:
            for cluster in clusters.values():
                cluster.close()
        for transport, total in totals.items():
            assert total == expected_total, (
                f"P={num_partitions} {transport} changed the candidate count"
            )
        best_by_p[num_partitions] = best

        for transport in ("inprocess", "shm"):
            wall = best[transport]
            metrics = {
                "ingest_seconds": round(wall, 4),
                "events_per_sec": round(len(events) / wall, 1),
                "speedup_vs_p1": round(
                    best_by_p[1][transport] / wall, 3
                ),
                "cpu_count": cores,
            }
            overhead = ""
            if transport != "inprocess":
                metrics["wire_overhead_ratio"] = round(
                    wall / best["inprocess"], 3
                )
                overhead = f"{metrics['wire_overhead_ratio']:.2f}x"
            if transport == "shm":
                metrics["shm_fallback_rate"] = round(fallback_rate, 4)
            table.add_row(
                num_partitions,
                transport,
                f"{wall:.2f}",
                overhead,
                f"{fallback_rate:.3f}" if transport == "shm" else "",
            )
            report.record(
                "ingest",
                {
                    "workload": "hub-burst-wire",
                    "mode": transport,
                    "partitions": num_partitions,
                    "events": len(events),
                    "batch_size": PROCESS_BATCH_SIZE,
                },
                metrics,
            )

    if cores >= 4:
        assert best_by_p[4]["shm"] < best_by_p[1]["shm"], (
            f"shm transport showed no wall-clock speedup at P=4 on "
            f"{cores} cores"
        )
    else:
        table.add_note(
            f"only {cores} usable core(s): speedup assertion skipped — "
            "the recorded numbers measure wire overhead, not parallelism"
        )
