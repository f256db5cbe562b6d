"""E2 — Edge-ingest throughput: the paper's O(10^4) insertions/second target.

Paper: "The system must be able to handle a highly dynamic graph — our
design targets O(10^4) edge insertions per second."

Four measurements:

* **firehose ingest** — an uncorrelated background stream (the shape of
  the real firehose, where nearly every insertion completes no motif);
  this is the paper's design-target number and must exceed 10^4/s;
* **burst-heavy ingest** — the same machinery under an adversarially
  bursty stream, where hot targets trigger large k-overlaps (bounded by
  the max_trigger_sources cap);
* **cluster ingest** — 4 partitions in one Python process; production
  recovers the fan-out factor by running partitions in parallel;
* **micro-batching sweep** — the per-event path versus the columnar
  ``EventBatch`` path at batch sizes {1, 16, 64, 256} on the cold
  firehose workload, showing how batching amortizes per-event
  interpreter overhead.  Emits machine-readable results to
  ``benchmarks/results/BENCH_ingest.json``;
* **burst-heavy emission ablation (E16)** — the full detect + deliver
  path with recommendations crossing the detector -> delivery boundary
  boxed (one ``Recommendation`` dataclass per raw candidate, PR 2's
  shape) versus columnar (``RecommendationBatch`` straight into
  ``offer_batch``), on the burst-heavy workload where candidate volume
  dwarfs event volume.
"""

import time

import pytest

from repro.bench.workloads import (
    BENCH_D_CAP,
    BENCH_PARAMS,
    assert_same_delivery,
    bench_cluster,
    bench_engine,
    bursty_workload,
    firehose_stream_config,
    interleaved_best_of,
    viral_firehose_stream_config,
)
from repro.core import DiamondDetector, MotifEngine
from repro.core.batch import iter_event_batches
from repro.delivery import DeliveryPipeline, PushNotifier
from repro.gen import StreamConfig, generate_event_batch, generate_event_stream
from repro.graph import DynamicEdgeIndex, build_follower_snapshot
from repro.graph.dynamic_index import DEFAULT_PROMOTE_THRESHOLD


@pytest.fixture(scope="module")
def workload():
    return bursty_workload(num_users=20_000, duration=1_200.0, background_rate=10.0)


@pytest.fixture(scope="module")
def background_events(workload):
    snapshot, _ = workload
    return generate_event_stream(
        StreamConfig(
            num_users=snapshot.num_users,
            duration=1_200.0,
            background_rate=12.0,
            bursts=(),
            seed=99,
        )
    )


def test_firehose_ingest_throughput(benchmark, workload, background_events, report):
    snapshot, _ = workload
    events = background_events

    def ingest():
        engine = bench_engine(snapshot, track_latency=False)
        for event in events:
            engine.process(event)
        return engine

    benchmark.pedantic(ingest, rounds=3, iterations=1)
    throughput = len(events) / benchmark.stats.stats.mean

    table = report.table(
        "E2",
        "edge-ingest throughput (full detection path)",
        ["configuration", "events", "events/sec", "paper target"],
    )
    table.add_row(
        "single partition, firehose", len(events), f"{throughput:,.0f}", "O(10^4)"
    )
    report.record(
        "ingest",
        {"workload": "firehose", "events": len(events), "path": "per-event"},
        {"events_per_sec": round(throughput, 1)},
    )
    assert throughput >= 10_000, (
        f"firehose ingest {throughput:,.0f}/s misses the paper's 10^4/s target"
    )


def test_burst_heavy_ingest_throughput(benchmark, workload, report):
    snapshot, events = workload

    def ingest():
        engine = bench_engine(snapshot, track_latency=False)
        for event in events:
            engine.process(event)
        return engine

    engine = benchmark.pedantic(ingest, rounds=1, iterations=1)
    throughput = len(events) / benchmark.stats.stats.mean

    for t in report.tables:
        if t.experiment_id == "E2":
            t.add_row(
                "single partition, burst-heavy",
                len(events),
                f"{throughput:,.0f}",
                "-",
            )
            break
    assert engine.stats.recommendations_emitted > 0, "workload never triggered"
    assert throughput >= 2_000, "burst-heavy ingest collapsed"


#: Micro-batch sizes swept by the per-event-vs-batched comparison.
SWEEP_BATCH_SIZES = (1, 16, 64, 256)


def test_batched_ingest_sweep(workload, report):
    """Per-event vs columnar-batched ingest at batch sizes {1, 16, 64, 256}.

    Runs on the cold firehose workload (the design-target premise: nearly
    every insertion completes no motif), with the static index built once
    outside the timed region so only stream ingestion is measured.  The
    batched path must amortize: batch=256 has to beat batch=1 by >= 3x.
    Measurements are interleaved round-robin so machine noise hits every
    configuration equally; each configuration keeps its best round.
    """
    snapshot, _ = workload
    config = firehose_stream_config(num_users=snapshot.num_users)
    events = generate_event_stream(config)
    event_batch = generate_event_batch(config)
    n = len(events)
    static_index = build_follower_snapshot(snapshot)

    def make_engine():
        dynamic_index = DynamicEdgeIndex(
            retention=BENCH_PARAMS.tau, max_edges_per_target=BENCH_D_CAP
        )
        detector = DiamondDetector(
            static_index, dynamic_index, BENCH_PARAMS, inserts_edges=False
        )
        return MotifEngine(
            static_index, dynamic_index, [detector], track_latency=False
        )

    def run_per_event():
        engine = make_engine()
        started = time.perf_counter()
        for event in events:
            engine.process(event)
        return time.perf_counter() - started, engine

    def run_batched(batch_size):
        engine = make_engine()
        started = time.perf_counter()
        for start in range(0, n, batch_size):
            engine.process_batch(event_batch.slice(start, min(start + batch_size, n)))
        return time.perf_counter() - started, engine

    configurations = [("per-event", run_per_event)] + [
        (size, lambda size=size: run_batched(size)) for size in SWEEP_BATCH_SIZES
    ]
    best: dict[object, float] = {}
    emitted: dict[object, int] = {}
    for _round in range(3):
        for key, run in configurations:
            elapsed, engine = run()
            best[key] = min(best.get(key, float("inf")), elapsed)
            emitted[key] = engine.stats.recommendations_emitted

    # Every configuration must have produced identical output.
    assert len(set(emitted.values())) == 1, f"paths diverged: {emitted}"

    table = report.table(
        "E13",
        "micro-batched ingest sweep (cold firehose, static index prebuilt)",
        ["configuration", "events/sec", "vs per-event", "vs batch=1"],
    )
    per_event_elapsed = best["per-event"]
    for key, _run in configurations:
        throughput = n / best[key]
        label = "per-event path" if key == "per-event" else f"batch={key}"
        table.add_row(
            label,
            f"{throughput:,.0f}",
            f"{per_event_elapsed / best[key]:.2f}x",
            f"{best[1] / best[key]:.2f}x",
        )
        report.record(
            "ingest",
            {
                "workload": "firehose-cold",
                "num_users": snapshot.num_users,
                "events": n,
                "batch_size": None if key == "per-event" else key,
                "path": "per-event" if key == "per-event" else "batched",
            },
            {
                "events_per_sec": round(throughput, 1),
                "speedup_vs_per_event": round(per_event_elapsed / best[key], 3),
                "speedup_vs_batch1": round(best[1] / best[key], 3),
            },
        )
    table.add_note(
        "batch=1 pays the full per-batch constant cost per event; the sweep "
        "shows that cost amortizing away as the micro-batch grows"
    )
    assert best[1] / best[256] >= 3.0, (
        f"batch=256 only {best[1] / best[256]:.2f}x over batch=1; "
        "the batched hot path failed to amortize"
    )


def test_viral_scan_promote_threshold(workload, report):
    """E14 (the one retained row) — why hot D targets become columnar rings.

    Storage layouts are no longer selectable (the S x D backend matrix was
    retired in PR 17; final numbers in ``docs/BENCHMARKS.md``).  The one
    selection left is made by D itself, from the entry count it observes:
    a target holding >= ``DEFAULT_PROMOTE_THRESHOLD`` edges (D's fixed
    constant, no option) is promoted from a deque of tuples to a ring.
    Two measurements price that fixed threshold, each a promoting index
    against one that never promotes (the ``promote_threshold`` attribute
    set before the first insert):

    * **viral-scan** — the freshness scan of one cap-depth target (where
      the query-cost crossover is read; nothing derives from it);
    * **firehose-viral** — batch=256 engine ingest over the cold firehose
      plus one persistently viral target (the stream shape rings exist
      for), at the default threshold.  Representation must not change
      results.
    """
    snapshot, _ = workload
    event_batch = generate_event_batch(
        viral_firehose_stream_config(num_users=snapshot.num_users)
    )
    n = len(event_batch)

    def run_with(promote_threshold):
        def run():
            engine = bench_engine(snapshot, track_latency=False)  # untimed
            engine.dynamic_index.promote_threshold = promote_threshold
            started = time.perf_counter()
            for start in range(0, n, 256):
                engine.process_batch(event_batch.slice(start, min(start + 256, n)))
            return time.perf_counter() - started, engine.stats.recommendations_emitted

        return run

    best, emitted = interleaved_best_of(
        {"default": run_with(DEFAULT_PROMOTE_THRESHOLD), "never": run_with(1 << 62)},
        rounds=4,
    )
    assert emitted["default"] == emitted["never"], f"layouts diverged: {emitted}"
    ingest_speedup = best["never"] / best["default"]
    scan = _viral_scan_best_times(entries=BENCH_D_CAP)
    scan_speedup = scan["deque"] / scan["ring"]

    table = report.table(
        "E14",
        "ring promotion vs never promoting (best of interleaved rounds)",
        ["measurement", "never promoting", "promoting", "ratio"],
    )
    table.add_row(
        f"viral-scan @ {BENCH_D_CAP} entries (us/query)",
        f"{scan['deque'] * 1e6:.2f}", f"{scan['ring'] * 1e6:.2f}",
        f"{scan_speedup:.2f}x",
    )
    table.add_row(
        "firehose-viral batch=256 (events/sec)",
        f"{n / best['never']:,.0f}", f"{n / best['default']:,.0f}",
        f"{ingest_speedup:.2f}x",
    )
    report.record(
        "ingest",
        {"workload": "viral-scan", "entries": BENCH_D_CAP},
        {
            "deque_us": round(scan["deque"] * 1e6, 2),
            "ring_us": round(scan["ring"] * 1e6, 2),
            "ring_speedup": round(scan_speedup, 3),
        },
    )
    report.record(
        "ingest",
        {
            "workload": "firehose-viral",
            "num_users": snapshot.num_users,
            "events": n,
            "batch_size": 256,
            "path": "batched",
        },
        {
            "events_per_sec": round(n / best["default"], 1),
            "speedup_vs_never_promoting": round(ingest_speedup, 3),
        },
    )
    # Loose margins: shared CI runners swing several percent even with
    # interleaved best-of rounds (the regression gate applies its own
    # tolerance for the same reason).
    assert scan_speedup >= 1.1, (
        f"ring freshness scan only {scan_speedup:.2f}x over the deque scan "
        "at cap depth"
    )
    assert ingest_speedup >= 0.90, (
        f"promotion taxes the viral firehose: {ingest_speedup:.2f}x"
    )


def test_burst_heavy_emission_columnar_vs_boxed(workload, report):
    """E16 — recommendation emission: columnar batches vs boxed dataclasses.

    The whole hot path runs both ways on the burst-heavy workload at
    batch=256 — ingest, detection, *and* delivery — differing only in how
    candidates cross the detector -> delivery boundary:

    * **boxed** — ``process_batch`` materializes one ``Recommendation``
      per raw candidate and the funnel takes them one ``offer`` at a time
      (PR 2's shape, where profiles put candidate boxing at ~60% of the
      burst-heavy run);
    * **columnar** — ``process_batch_grouped`` hands the funnel
      ``RecommendationBatch`` columns and only final survivors are boxed.

    Identical funnels and notification sequences required; measurements
    interleave round-robin with each path keeping its best round.
    """
    snapshot, events = workload
    static_index = build_follower_snapshot(snapshot)
    batch_size = 256

    def make_engine():
        dynamic_index = DynamicEdgeIndex(
            retention=BENCH_PARAMS.tau,
            max_edges_per_target=BENCH_D_CAP,
        )
        detector = DiamondDetector(
            static_index, dynamic_index, BENCH_PARAMS, inserts_edges=False
        )
        return MotifEngine(
            static_index, dynamic_index, [detector], track_latency=False
        )

    def run_boxed():
        engine = make_engine()
        pipeline = DeliveryPipeline(notifier=PushNotifier(keep_at_most=10_000))
        offer = pipeline.offer
        started = time.perf_counter()
        for chunk in iter_event_batches(events, batch_size):
            now = float(chunk.timestamps[-1])
            for rec in engine.process_batch(chunk):
                offer(rec, now)
        return time.perf_counter() - started, (engine, pipeline)

    def run_columnar():
        engine = make_engine()
        pipeline = DeliveryPipeline(notifier=PushNotifier(keep_at_most=10_000))
        offer_batch = pipeline.offer_batch
        started = time.perf_counter()
        for chunk in iter_event_batches(events, batch_size):
            now = float(chunk.timestamps[-1])
            candidates = engine.process_batch_grouped(chunk)
            if candidates.groups:
                offer_batch(candidates, now)
        return time.perf_counter() - started, (engine, pipeline)

    best, outcomes = interleaved_best_of(
        {"boxed": run_boxed, "columnar": run_columnar}
    )

    # Representation must never change results: same raw volume, same
    # funnel accounting, same notification sequence.
    boxed_engine, boxed_pipeline = outcomes["boxed"]
    columnar_engine, columnar_pipeline = outcomes["columnar"]
    candidates = boxed_engine.stats.recommendations_emitted
    assert candidates == columnar_engine.stats.recommendations_emitted
    assert candidates > 100_000, "burst-heavy workload never went hot"
    assert_same_delivery(boxed_pipeline, columnar_pipeline)

    n = len(events)
    speedup = best["boxed"] / best["columnar"]
    table = report.table(
        "E16",
        "burst-heavy emission: columnar RecommendationBatch vs boxed (batch=256)",
        ["emission", "events/sec", "candidates/sec", "speedup"],
    )
    for key in ("boxed", "columnar"):
        table.add_row(
            key,
            f"{n / best[key]:,.0f}",
            f"{candidates / best[key]:,.0f}",
            f"{best['boxed'] / best[key]:.2f}x",
        )
        report.record(
            "ingest",
            {
                "workload": "burst-heavy-emission",
                "num_users": snapshot.num_users,
                "events": n,
                "batch_size": batch_size,
                "path": key,
            },
            {
                "events_per_sec": round(n / best[key], 1),
                "candidates_per_sec": round(candidates / best[key], 1),
                "speedup_vs_boxed": round(best["boxed"] / best[key], 3),
            },
        )
    table.add_note(
        f"{candidates} raw candidates from {n} events; the boxed path "
        "constructs one dataclass per candidate, the columnar path only "
        "per funnel survivor"
    )
    assert speedup >= 1.5, (
        f"columnar emission only {speedup:.2f}x over boxed on the "
        "burst-heavy workload"
    )


def _viral_scan_best_times(entries: int, queries: int = 512) -> dict[str, float]:
    """Best per-query freshness-scan time for one cap-depth hot target,
    stored as a deque (never promoted) and as a ring (tiny threshold)."""
    out: dict[str, float] = {}
    for layout, threshold in (("deque", 1 << 62), ("ring", 8)):
        index = DynamicEdgeIndex(retention=1e9)
        index.promote_threshold = threshold
        for i in range(entries):
            index.insert(i % max(entries * 2 // 3, 1), 7, float(i))
        targets = [7] * 64
        nows = [float(entries)] * 64
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(queries // 64):
                index.fresh_sources_multi(targets, nows, tau=1e8, min_count=3, raw=True)
            best = min(best, time.perf_counter() - started)
        out[layout] = best / queries
    return out


def test_cluster_throughput(benchmark, workload, report):
    """Every partition sees every event: ~P times the work per event in
    one process (the paper's D-replication trade-off)."""
    snapshot, events = workload

    def ingest():
        cluster = bench_cluster(snapshot, num_partitions=4)
        for event in events:
            cluster.process_event(event)
        return cluster

    benchmark.pedantic(ingest, rounds=1, iterations=1)
    throughput = len(events) / benchmark.stats.stats.mean

    report.record(
        "ingest",
        {
            "workload": "bursty",
            "events": len(events),
            "path": "per-event",
            "partitions": 4,
        },
        {"events_per_sec": round(throughput, 1)},
    )
    for t in report.tables:
        if t.experiment_id == "E2":
            t.add_row("4-partition cluster (1 proc)", len(events), f"{throughput:,.0f}", "-")
            t.add_note(
                "cluster row simulates 4 machines in one process; production "
                "runs partitions in parallel and regains the fan-out factor"
            )
            break
