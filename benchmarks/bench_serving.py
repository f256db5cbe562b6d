"""E21/E23 — serving-tier reads and in-worker serving (extension).

The paper's product serves "show me my recommendations now" for any of
millions of users while the push pipeline keeps delivering.

**E21** measures exactly that read path: per-user point queries
against the :class:`~repro.serving.cache.ServingCache` while a writer
thread keeps merging delivery flush windows into the same columnar
store, versus the identical query load against an idle (fully
pre-merged) cache.

**E23** measures what moving the cache writers *into* the delivery-shard
processes buys.  The same windows run through a real
:class:`~repro.delivery.sharded.ShardedDeliveryPipeline` twice at each
shard count: once in the parent-tap posture (the parent merges every
window into a parent-resident sharded cache just before offering it —
the pre-funnel ``ingest_batch`` tap the topology runs in front of a
single funnel) and once in the in-worker posture (each shard worker
merges its own slice into a shared-memory arena before the funnel; the
parent only posts batches).  The headline metric,
``serving_ingest_speedup_vs_parent_tap``, is parent-tap wall over
in-worker wall — with 2+ shards on a multicore host the merge work
parallelizes across workers instead of serializing in the parent, so
the ratio should sit at or above 1.  The second half prices the read
side of the trade: cross-process point queries through the attached
arenas versus the same query load against the in-process parent-tap
cache, gated at the same **5x** bar E21 applies to live-vs-idle reads.

Two runs over the *same* precomputed flush windows and the same zipf
query sequence:

* **idle** — apply every window first, then query: the floor the
  lock-free read path can hit with no writer in sight;
* **live** — a writer thread paces the same windows across the query
  phase (~25% duty cycle, the shape of a delivery tier that is busy but
  not saturated) while the main thread queries concurrently.

The seqlock contract says the two runs must end in the *same cache* —
``dump()`` equality is asserted, so the latency comparison is at equal
delivered multiset — and that reads never tear or block the writer; the
cost of the contract is the retry laps readers take when they collide
with a merge, which is precisely what ``read_p99_degradation_ratio``
(live p99 over idle p99, gated lower-is-better) measures.  The headline
acceptance bar: live p99 within **5x** of idle p99 on a >= 1M-user
graph.

The graph builds through :func:`generate_follow_graph_chunked` — the
multi-million-user scale this bench runs at is the reason that path
exists.  Flush windows are synthesized from the graph itself: each
window picks a zipf-popular candidate account and offers it to a slice
of that account's real followers, so audience sizes and user-overlap
follow the graph's skew rather than a uniform toy distribution.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.delivery.scoring import decayed_scores
from repro.gen import TwitterGraphConfig, generate_follow_graph_chunked
from repro.gen.zipf import ZipfSampler
from repro.serving import ServingCache
from repro.util.rng import derive_seed, make_rng

#: Materialized entries per user; every query asks for the full row.
K = 3
HALF_LIFE = 1_800.0

#: Writer duty cycle in the live run: sleep this many multiples of the
#: mean window-apply time between windows (3 -> ~25% duty).
PACING_SLEEP_FACTOR = 3.0

#: The acceptance bar: live p99 within this factor of idle p99.
MAX_P99_DEGRADATION = 5.0

SCALES = {
    # CI-sized: same shape, small enough for the bench-smoke job.
    "smoke": dict(
        num_users=250_000,
        mean_followings=8.0,
        num_windows=120,
        max_audience=800,
        num_queries=8_000,
        capacity=1 << 17,
    ),
    # The record scale: the >= 1M-user acceptance run.
    "full": dict(
        num_users=1_200_000,
        mean_followings=8.0,
        num_windows=300,
        max_audience=1_500,
        num_queries=20_000,
        capacity=1 << 20,
    ),
}


def build_windows(snapshot, num_windows, max_audience, seed):
    """Precompute flush windows as aligned winner columns.

    Each window is one ``(recipients, candidates, scores, created_at)``
    tuple — exactly one :meth:`ServingCache.update_columns` call — so
    both runs replay an identical ingest sequence and the writer thread
    does no Python-side assembly while readers are live.
    """
    followers = snapshot.graph.transposed()
    candidate_sampler = ZipfSampler(
        snapshot.num_users, 1.05, make_rng(seed, "bench-serving-candidates")
    )
    rng = np.random.default_rng(derive_seed(seed, "bench-serving-windows"))
    windows = []
    total_rows = 0
    for w in range(num_windows):
        audience = np.empty(0, dtype=np.int64)
        while len(audience) == 0:
            candidate = candidate_sampler.sample()
            audience = followers.neighbors(candidate)
        if len(audience) > max_audience:
            start = int(rng.integers(0, len(audience) - max_audience + 1))
            audience = audience[start : start + max_audience]
        now = float(w + 1)
        created = np.full(len(audience), now, dtype=np.float64)
        witnesses = rng.integers(1, 5, size=len(audience)).astype(np.int64)
        windows.append(
            (
                audience,
                np.full(len(audience), candidate, dtype=np.int64),
                decayed_scores(witnesses, created, now, HALF_LIFE),
                created,
            )
        )
        total_rows += len(audience)
    return windows, total_rows


def apply_windows(cache, windows):
    """Apply every window back to back; returns busy wall seconds."""
    started = time.perf_counter()
    for recipients, candidates, scores, created_at in windows:
        cache.update_columns(recipients, candidates, scores, created_at)
    return time.perf_counter() - started


def run_queries(cache, num_users, num_queries, seed, stop_event=None):
    """Issue the zipf point-query sequence; returns latency seconds.

    With *stop_event*, keeps querying past *num_queries* until the event
    fires (the live run queries for as long as the writer is active, so
    the percentiles cover the whole ingest phase, not just its start).
    """
    sampler = ZipfSampler(num_users, 1.1, make_rng(seed, "bench-serving-query"))
    latencies = []
    issued = 0
    while issued < num_queries or (stop_event is not None and not stop_event.is_set()):
        user = sampler.sample()
        started = time.perf_counter()
        cache.get_recommendations(user)
        latencies.append(time.perf_counter() - started)
        issued += 1
        if issued >= 50 * num_queries:
            break  # safety valve: a wedged writer must not hang the bench
    return latencies


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_serving_read_latency_under_ingest(scale, report):
    params = SCALES[scale]
    seed = 21
    config = TwitterGraphConfig(
        num_users=params["num_users"],
        mean_followings=params["mean_followings"],
        seed=seed,
    )
    snapshot = generate_follow_graph_chunked(config)
    windows, total_rows = build_windows(
        snapshot, params["num_windows"], params["max_audience"], seed
    )

    # -- idle baseline: every window merged before the first query ------
    cache_idle = ServingCache(
        k=K, half_life=HALF_LIFE, capacity=params["capacity"]
    )
    ingest_seconds = apply_windows(cache_idle, windows)
    idle = run_queries(
        cache_idle, params["num_users"], params["num_queries"], seed
    )

    # -- live run: a paced writer thread merges the same windows while
    # the main thread queries ------------------------------------------
    cache_live = ServingCache(
        k=K, half_life=HALF_LIFE, capacity=params["capacity"]
    )
    pause = PACING_SLEEP_FACTOR * ingest_seconds / len(windows)
    writer_done = threading.Event()
    writer_error: list[BaseException] = []

    def writer():
        try:
            for window in windows:
                cache_live.update_columns(*window)
                time.sleep(pause)
        except BaseException as error:  # surfaced in the main thread
            writer_error.append(error)
        finally:
            writer_done.set()

    writer_thread = threading.Thread(target=writer, name="serving-writer")
    writer_thread.start()
    live = run_queries(
        cache_live,
        params["num_users"],
        params["num_queries"],
        seed,
        stop_event=writer_done,
    )
    writer_thread.join()
    assert not writer_error, f"writer thread failed: {writer_error[0]!r}"

    # Equal delivered multiset: concurrency must not change the cache.
    assert cache_live.dump() == cache_idle.dump()

    idle_us = np.asarray(idle) * 1e6
    live_us = np.asarray(live) * 1e6
    idle_p50, idle_p99 = np.percentile(idle_us, [50, 99])
    live_p50, live_p99 = np.percentile(live_us, [50, 99])
    # Floored at 1.0 for the regression record: the live run's early
    # phase is miss-heavy (the cache is still filling) and misses are
    # cheaper than hits, so sub-unity ratios are sampling composition,
    # not a real speedup — a baseline below 1 would turn that noise into
    # gate flakiness.
    degradation = max(1.0, live_p99 / max(idle_p99, 1e-9))

    table = report.table(
        "E21",
        f"serving reads under live ingest ({scale}: "
        f"{params['num_users']:,} users, {total_rows:,} winner rows)",
        ["run", "queries", "p50", "p99", "hit rate"],
    )
    table.add_row(
        "idle", len(idle), f"{idle_p50:.1f} us", f"{idle_p99:.1f} us",
        f"{cache_idle.hit_rate:.1%}",
    )
    table.add_row(
        "live ingest", len(live), f"{live_p50:.1f} us", f"{live_p99:.1f} us",
        f"{cache_live.hit_rate:.1%}",
    )
    table.add_note(
        f"p99 degradation {degradation:.2f}x (bar: <{MAX_P99_DEGRADATION:g}x) "
        f"at equal final cache contents; {cache_idle.users_cached:,} users "
        f"materialized at {cache_idle.bytes_per_user():.0f} B/user"
    )
    report.record(
        "serving",
        {
            "workload": "zipf-follower-windows",
            "num_users": params["num_users"],
            "num_windows": params["num_windows"],
            "winner_rows": total_rows,
            "k": K,
            "scale": scale,
        },
        {
            "read_p50_us_idle": round(float(idle_p50), 2),
            "read_p99_us_idle": round(float(idle_p99), 2),
            "read_p50_us_live": round(float(live_p50), 2),
            "read_p99_us_live": round(float(live_p99), 2),
            "read_p99_degradation_ratio": round(float(degradation), 4),
            "hit_rate": round(cache_live.hit_rate, 4),
            "cache_users": cache_idle.users_cached,
            "bytes_per_user": round(cache_idle.bytes_per_user(), 1),
            "ingest_rows_per_sec": round(total_rows / max(ingest_seconds, 1e-9)),
            "queries_live": len(live),
        },
    )

    assert cache_idle.users_cached > 0
    assert degradation < MAX_P99_DEGRADATION, (
        f"live p99 {live_p99:.1f}us is {degradation:.1f}x idle p99 "
        f"{idle_p99:.1f}us (bar: {MAX_P99_DEGRADATION:g}x)"
    )


# ======================================================================
# E23 — in-worker serving vs parent-tap over a real sharded pipeline
# ======================================================================

#: Cross-process reads (attach + generation check + seqlock copy) may
#: cost at most this factor over in-process reads of the same contents.
MAX_CROSS_PROCESS_READ_RATIO = 5.0

#: Parent-tap wall over in-worker wall must reach this at 2+ shards on a
#: multicore host (informational on smaller hosts: with every worker
#: time-slicing one core, in-worker merge work cannot parallelize).
MIN_WORKER_INGEST_SPEEDUP = 1.0
MIN_CORES_FOR_SPEEDUP_GATE = 4

E23_SCALES = {
    "smoke": dict(
        num_users=60_000,
        num_windows=40,
        groups_per_window=10,
        max_audience=400,
        num_queries=4_000,
        shard_counts=(1, 2),
        repeats=2,
    ),
    "full": dict(
        num_users=400_000,
        num_windows=120,
        groups_per_window=12,
        max_audience=1_000,
        num_queries=12_000,
        shard_counts=(1, 2, 4),
        repeats=3,
    ),
}


def _e23_pipeline_factory(_shard: int):
    from repro.delivery import DeliveryPipeline

    return DeliveryPipeline(filters=[])


def build_batches(params, seed):
    """Precompute every flush window as a RecommendationBatch.

    Zipf-popular candidates offered to random audience slices — the same
    shape E21 draws from a generated graph, without paying for graph
    construction: E23's subject is the pipeline posture, not the graph.
    """
    from repro.core.recommendation import RecommendationBatch, RecommendationGroup

    sampler = ZipfSampler(
        params["num_users"], 1.05, make_rng(seed, "bench-e23-candidates")
    )
    rng = np.random.default_rng(derive_seed(seed, "bench-e23-windows"))
    batches, total_rows = [], 0
    for w in range(params["num_windows"]):
        groups = []
        for _ in range(params["groups_per_window"]):
            size = int(rng.integers(20, params["max_audience"]))
            groups.append(
                RecommendationGroup(
                    rng.choice(
                        params["num_users"], size=size, replace=False
                    ).astype(np.int64),
                    candidate=sampler.sample(),
                    created_at=float(w + 1),
                    via=tuple(rng.integers(0, 1_000, 1 + w % 4).tolist()),
                )
            )
            total_rows += size
        batches.append(RecommendationBatch(groups))
    return batches, total_rows


def run_ingest(num_shards, batches, in_worker):
    """One pipeline run in the given posture; returns (wall, dump, pipeline).

    The pipeline is returned still open in the in-worker posture so the
    caller can measure cross-process reads against the live arenas; the
    parent-tap posture closes it and hands back the parent-resident
    cache instead.
    """
    from repro.delivery import ShardedDeliveryPipeline
    from repro.serving import ServingCacheConfig, ShardedServingCache

    pipeline = ShardedDeliveryPipeline(
        num_shards,
        pipeline_factory=_e23_pipeline_factory,
        transport="shm",
        serving=(
            ServingCacheConfig(k=K, half_life=HALF_LIFE) if in_worker else None
        ),
    )
    if in_worker:
        cache = pipeline.serving
    else:
        cache = ShardedServingCache(
            num_shards=num_shards, k=K, half_life=HALF_LIFE
        )
    try:
        started = time.perf_counter()
        for w, batch in enumerate(batches):
            now = 50_000.0 + float(w)
            if not in_worker:
                cache.ingest_batch(batch, now)  # the coalescer's flush tap
            pipeline.offer_batch(batch, now)
        wall = time.perf_counter() - started
    except BaseException:
        pipeline.close()
        raise
    if in_worker:
        return wall, cache.dump(), pipeline
    pipeline.close()
    return wall, cache.dump(), cache


@pytest.mark.parametrize("scale", sorted(E23_SCALES))
def test_in_worker_serving_vs_parent_tap(scale, report):
    import os

    from repro.cluster import shm_available

    if not shm_available():
        pytest.skip("POSIX shared memory unavailable on this host")
    params = E23_SCALES[scale]
    seed = 23
    batches, total_rows = build_batches(params, seed)
    cores = len(os.sched_getaffinity(0))

    table = report.table(
        "E23",
        f"in-worker serving vs parent-tap ({scale}: {total_rows:,} winner "
        f"rows over {params['num_windows']} windows, {cores} cores)",
        ["shards", "parent-tap", "in-worker", "speedup", "xproc p50", "xproc p99"],
    )

    for shards in params["shard_counts"]:
        parent_wall = worker_wall = float("inf")
        parent_cache = worker_pipeline = None
        worker_dump = parent_dump = None
        # Best-of-N walls: posture difference, not scheduler noise.
        for _ in range(params["repeats"]):
            wall, dump, cache = run_ingest(shards, batches, in_worker=False)
            if wall < parent_wall:
                parent_wall, parent_dump, parent_cache = wall, dump, cache
            wall, dump, pipeline = run_ingest(shards, batches, in_worker=True)
            if wall < worker_wall:
                if worker_pipeline is not None:
                    worker_pipeline.close()
                worker_wall, worker_dump, worker_pipeline = (
                    wall, dump, pipeline,
                )
            else:
                pipeline.close()

        try:
            # Same delivered state whichever process holds the pen.
            assert worker_dump == parent_dump
            speedup = parent_wall / max(worker_wall, 1e-9)

            # Cross-process reads through the attached arenas vs the
            # same zipf load against the in-process parent-tap cache.
            cross = run_queries(
                worker_pipeline.serving,
                params["num_users"],
                params["num_queries"],
                seed,
            )
            inproc = run_queries(
                parent_cache, params["num_users"], params["num_queries"], seed
            )
        finally:
            worker_pipeline.close()
        cross_us = np.asarray(cross) * 1e6
        cross_p50, cross_p99 = np.percentile(cross_us, [50, 99])
        inproc_p99 = float(np.percentile(np.asarray(inproc) * 1e6, 99))
        # Floored at 1.0 like E21's degradation ratio: when both sides
        # sit at a few microseconds, sub-unity ratios are timer noise a
        # baseline should not enshrine.
        read_ratio = max(1.0, float(cross_p99) / max(inproc_p99, 1e-9))

        table.add_row(
            str(shards),
            f"{parent_wall * 1e3:.0f} ms",
            f"{worker_wall * 1e3:.0f} ms",
            f"{speedup:.2f}x",
            f"{cross_p50:.1f} us",
            f"{cross_p99:.1f} us",
        )
        report.record(
            "serving",
            {
                "workload": "in-worker-vs-parent-tap",
                "num_users": params["num_users"],
                "num_windows": params["num_windows"],
                "winner_rows": total_rows,
                "k": K,
                "shards": shards,
                "scale": scale,
            },
            {
                "serving_ingest_speedup_vs_parent_tap": round(speedup, 4),
                "parent_tap_wall_ms": round(parent_wall * 1e3, 2),
                "in_worker_wall_ms": round(worker_wall * 1e3, 2),
                "ingest_rows_per_sec_worker": round(
                    total_rows / max(worker_wall, 1e-9)
                ),
                "cross_process_read_p50_us": round(float(cross_p50), 2),
                "cross_process_read_p99_us": round(float(cross_p99), 2),
                "cross_process_read_p99_ratio": round(read_ratio, 4),
                "users_served": len(worker_dump),
            },
        )

        assert len(worker_dump) > 0
        assert read_ratio < MAX_CROSS_PROCESS_READ_RATIO, (
            f"cross-process p99 {cross_p99:.1f}us is {read_ratio:.1f}x the "
            f"in-process p99 {inproc_p99:.1f}us "
            f"(bar: {MAX_CROSS_PROCESS_READ_RATIO:g}x)"
        )
        if shards >= 2 and cores >= MIN_CORES_FOR_SPEEDUP_GATE:
            assert speedup >= MIN_WORKER_INGEST_SPEEDUP, (
                f"in-worker ingest at {shards} shards ran {speedup:.2f}x "
                f"parent-tap (bar: >= {MIN_WORKER_INGEST_SPEEDUP:g}x on "
                f"{cores} cores)"
            )

    table.add_note(
        f"speedup gate active at >= 2 shards on >= "
        f"{MIN_CORES_FOR_SPEEDUP_GATE} cores (this host: {cores}); "
        f"cross-process read bar: p99 < "
        f"{MAX_CROSS_PROCESS_READ_RATIO:g}x in-process"
    )
