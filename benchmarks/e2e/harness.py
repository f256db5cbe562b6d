"""The wall-clock flush loop, its reader, and the meters around them.

``streaming.DetectionConsumer`` / ``DeliveryCoalescer`` are bound to the
discrete-event simulator's virtual clock, so the loop here stands in for
them: it calls the same public functions in the same order (WAL tap
before the cluster sees a batch, ranked flush, serving tap before the
funnel) and times them from outside.  Tracing is nothing more than
wrapping those callables, so the traced and untraced runs execute the
same loop.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.bench.workloads import BENCH_D_CAP, BENCH_PARAMS
from repro.cluster import Cluster, ClusterConfig
from repro.core.batch import EventBatch
from repro.core.recommendation import RecommendationBatch
from repro.delivery import (
    DeliveryPipeline,
    ShardedDeliveryPipeline,
    TopKPerUserBuffer,
)
from repro.durability import DurabilityManager
from repro.gen import (
    TwitterGraphConfig,
    ZipfSampler,
    generate_event_batch,
    generate_follow_graph,
)
from repro.graph import GraphSnapshot
from repro.serving.cache import ServingCache, ServingCacheConfig
from repro.util.rng import make_rng

from workloads import (
    DELIVERY_SHARDS,
    MEAN_FOLLOWINGS,
    PARTITIONS,
    RANK_K,
    READ_QPS,
    READ_ZIPF,
    WARMUP_SHARE,
    Workload,
)

clock = time.perf_counter

#: Temp WAL roots live under the benchmark's own directory: the driver's
#: checkout is the only place a run may write.
TMP_ROOT = Path(__file__).resolve().parent / ".tmp"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span list: ``(name, start, end, parent, flush)`` rows.

    ``parent`` is the index of the enclosing span (-1 at the top) and
    ``flush`` the flush-batch index every span of one batch shares.
    Nothing is written anywhere until the run has ended.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.flush = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """*fn*, recording one span per call."""
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # type: ignore[arg-type]  # reserve: children need the index
            parent = stack[-1] if stack else -1
            stack.append(index)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans[index] = (name, started, ended, parent, self.flush)

        return traced

    def open(self, name: str) -> int:
        """Start a span by hand (the per-flush root); returns its index."""
        index = len(self.spans)
        self.spans.append((name, clock(), 0.0, -1, self.flush))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        name, started, _end, parent, flush = self.spans[index]
        self.spans[index] = (name, started, clock(), parent, flush)
        self._stack.pop()

    def call_cost(self) -> float:
        """Measured seconds one recorded span adds to the call it wraps."""
        def noop() -> None:
            return None

        scratch = Tracer()
        wrapped = scratch.wrap("noop", noop)
        n = 20_000
        started = clock()
        for _ in range(n):
            noop()
        bare = clock() - started
        started = clock()
        for _ in range(n):
            wrapped()
        return max(clock() - started - bare, 0.0) / n


def _untraced(_name: str, fn: Callable) -> Callable:
    return fn


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything generated from the seed; the program sees only this."""

    snapshot: GraphSnapshot
    events: EventBatch
    #: Flush boundaries: flush *i* is ``events[bounds[i]:bounds[i + 1]]``.
    bounds: list[int]
    #: Flush clocks: virtual ``created_at`` of each flush's last event.
    nows: list[float]
    warmup_flushes: int
    read_users: list[int]


def generate_inputs(
    workload: Workload, seed: int, scale: float, num_users: int
) -> Inputs:
    snapshot = generate_follow_graph(
        TwitterGraphConfig(
            num_users=num_users, mean_followings=MEAN_FOLLOWINGS, seed=seed
        )
    )
    events = generate_event_batch(workload.stream(scale, seed, num_users))
    n = len(events)
    bounds = list(range(0, n, workload.batch_size)) + [n]
    nows = events.timestamps[np.asarray(bounds[1:]) - 1].tolist()
    flushes = len(bounds) - 1
    warmup = max(1, int(flushes * WARMUP_SHARE))
    read_users: list[int] = []
    if workload.reader:
        sampler = ZipfSampler(num_users, READ_ZIPF, make_rng(seed, "reads"))
        # Closed loops have no fixed length; three times the nominal
        # window is more than a run at a third of nominal speed consumes.
        read_users = sampler.sample_many(int(READ_QPS * 30.0 * max(scale, 0.05)))
    return Inputs(snapshot, events, bounds, nows, warmup, read_users)


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------


class Deployment:
    """The system under test: cluster, WAL, ranker, funnel, serving cache."""

    def __init__(self, workload: Workload, snapshot: GraphSnapshot) -> None:
        self.workload = workload
        self.cluster = None
        self.durability = None
        self.delivery = None
        self.wal_root = TMP_ROOT / f"wal-{os.getpid()}-{id(self):x}"
        try:
            self.cluster = Cluster.build(
                snapshot,
                BENCH_PARAMS,
                ClusterConfig(
                    num_partitions=PARTITIONS,
                    max_edges_per_target=BENCH_D_CAP,
                    transport=workload.transport,
                ),
            )
            self.durability = DurabilityManager(
                self.wal_root, self.cluster, gc_segments=False
            )
            self.ranker = (
                TopKPerUserBuffer(k=RANK_K) if workload.ranked else None
            )
            if workload.sharded:
                self.delivery = ShardedDeliveryPipeline(
                    DELIVERY_SHARDS,
                    transport=workload.transport,
                    serving=ServingCacheConfig(k=RANK_K),
                )
                #: Written by the shards; the parent only reads it.
                self.serving = self.delivery.serving
                self.parent_serving = None
            else:
                self.delivery = DeliveryPipeline()
                self.serving = self.parent_serving = ServingCache(k=RANK_K)
        except BaseException:
            self.close()
            raise

    def worker_pids(self) -> list[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def funnel_totals(self) -> dict[str, int]:
        if self.workload.sharded:
            return self.delivery.funnel_totals()
        return dict(self.delivery.funnel.stages)

    def close(self) -> None:
        """Stop workers, unlink shm segments, remove the WAL root."""
        try:
            if self.workload.sharded and self.delivery is not None:
                self.delivery.close()
        finally:
            try:
                if self.cluster is not None:
                    self.cluster.close()
            finally:
                if self.durability is not None:
                    self.durability.close()
                shutil.rmtree(self.wal_root, ignore_errors=True)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


class Reader(threading.Thread):
    """Open-loop point queries: read *i* is due ``i / qps`` after start."""

    def __init__(self, serving, users: list[int], qps: float) -> None:
        super().__init__(name="e2e-reader", daemon=True)
        self._serving = serving
        self._users = users
        self._interval = 1.0 / qps
        self._stop_flag = threading.Event()
        self.started_at = 0.0
        #: (due, call start, call end) per read issued.
        self.samples: list[tuple[float, float, float]] = []
        self.hits = 0
        self.raised = 0
        #: Largest posted-minus-applied update count seen on any shard
        #: writer (worker-resident caches only; probed every 64th read).
        self.writer_lag_max = 0
        self._shard_stats = getattr(serving, "shard_stats", None)

    def run(self) -> None:
        get = self._serving.get_recommendations
        stopped = self._stop_flag
        interval = self._interval
        origin = self.started_at
        samples = self.samples
        for i, user in enumerate(self._users):
            due = origin + i * interval
            delay = due - clock()
            if delay > 0 and stopped.wait(delay):
                return
            if stopped.is_set():
                return
            started = clock()
            try:
                if get(user):
                    self.hits += 1
            except Exception:  # a read that raised is a failed operation
                self.raised += 1
            samples.append((due, started, clock()))
            if self._shard_stats is not None and not i % 64:
                lag = max(
                    shard.get("writer_lag_updates", 0.0)
                    for shard in self._shard_stats()
                )
                self.writer_lag_max = max(self.writer_lag_max, int(lag))

    def stop(self) -> None:
        self._stop_flag.set()
        self.join(timeout=10.0)


# ----------------------------------------------------------------------
# Meters
# ----------------------------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def _proc_pss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/smaps_rollup") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(pids: list[int]) -> float:
    """CPU consumed so far by this process and the live workers."""
    return time.process_time() + sum(_proc_cpu_seconds(p) for p in pids)


def peak_rss_mb(pids: list[int]) -> float:
    """This process's peak RSS plus the live workers' proportional share.

    Workers are forked, so each one's own RSS (and high-water mark)
    counts every page it still shares with the parent again; PSS charges
    a shared page once across its sharers.  It has no high-water mark,
    so it is read at the end of the pass, before shutdown.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_pss_mb(p) for p in pids)


# ----------------------------------------------------------------------
# The flush loop
# ----------------------------------------------------------------------


@dataclass
class LoopRecord:
    """What the flush loop observed, over every pass made with it."""

    #: Clock at the start and end of the most recent pass.
    started_at: float = 0.0
    ended_at: float = 0.0
    #: Per flush: when it was due (open loop) or taken (closed loop),
    #: when it started, and when its rows were servable and its
    #: notifications returned.
    due: list[float] = field(default_factory=list)
    begun: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    #: Per flush: raw candidates gathered, and delivered-so-far.
    candidates: list[int] = field(default_factory=list)
    delivered_upto: list[int] = field(default_factory=list)
    notifications: list = field(default_factory=list)
    #: Candidate groups gathered (one per partition-level trigger).
    triggers: int = 0
    released: int = 0
    #: Flushes after which :func:`run_flushes` captured ``prefix_state``
    #: for the output check (0 = not yet).
    prefix_flushes: int = 0
    prefix_state: tuple | None = None


class Capture(NamedTuple):
    """When and how :func:`run_flushes` snapshots state for the output
    check: after the first flush that reaches either budget, once,
    between two flushes."""

    candidates: int
    flushes: int
    snapshot: Callable[[], tuple]


def run_flushes(
    dep: Deployment,
    inputs: Inputs,
    start: int,
    stop: int,
    record: LoopRecord,
    tracer: Tracer | None = None,
    capture: Capture | None = None,
) -> None:
    """Drive flushes ``[start, stop)`` through every layer's public calls.

    Closed loop: the next batch is taken the moment the previous one is
    servable.  Open loop (``workload.paced_rate``): event *j* of this pass
    is due ``j / rate`` after the pass starts and a batch is due when its
    last event is; a late loop does not sleep, so backlog shows up as
    latency instead of throttling the generator.
    """
    workload = dep.workload
    wrap = tracer.wrap if tracer is not None else _untraced
    events, bounds, nows = inputs.events, inputs.bounds, inputs.nows
    broker = dep.cluster.broker
    ranker, delivery = dep.ranker, dep.delivery

    take = wrap("streaming.slice", events.slice)
    log_batch = wrap("durability.wal_append", dep.durability.log_batch)
    submit = wrap("cluster.submit", broker.submit_batch)
    gather = wrap("cluster.gather", broker.gather_batch)
    concat = wrap("core.concat", RecommendationBatch.concat_all)
    if ranker is not None:
        rank_offer = wrap("delivery.rank_offer", ranker.offer_batch)
        rank_flush = wrap("delivery.rank_flush", ranker.flush)
        funnel = wrap("delivery.funnel", delivery.offer_all)
        if dep.parent_serving is not None:
            merge = wrap("serving.merge", dep.parent_serving.ingest_released)
    else:
        funnel = wrap("delivery.funnel", delivery.offer_batch)
        merge = wrap("serving.merge", dep.parent_serving.ingest_batch)
    parent_serving = dep.parent_serving is not None

    rate = workload.paced_rate
    first_event = bounds[start]
    notifications = record.notifications
    seen = sum(record.candidates)
    record.started_at = origin = clock()
    for i in range(start, stop):
        lo, hi = bounds[i], bounds[i + 1]
        now = nows[i]
        if rate is None:
            begun = due = record.done[-1] if i > start else origin
        else:
            due = origin + (hi - first_event) / rate
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            begun = clock()
        if tracer is not None:
            tracer.flush = i
            root = tracer.open("streaming.flush")
        batch = take(lo, hi)
        log_batch(batch, now)
        submit(batch, now)
        grouped, _latency = gather()
        merged = concat(grouped)
        n_candidates = len(merged)
        record.triggers += len(merged.groups)
        if ranker is not None:
            if n_candidates:
                rank_offer(merged)
            released = rank_flush(now)
            if released:
                record.released += len(released)
                if parent_serving:
                    merge(released, now)
                notifications.extend(funnel(released, now))
        elif n_candidates:
            merge(merged, now)
            notifications.extend(funnel(merged, now))
        if tracer is not None:
            tracer.close(root)
        record.due.append(due)
        record.begun.append(begun)
        record.done.append(clock())
        record.candidates.append(n_candidates)
        record.delivered_upto.append(len(notifications))
        if capture is not None and not record.prefix_flushes:
            seen += n_candidates
            if seen >= capture.candidates or i + 1 >= capture.flushes:
                record.prefix_flushes = i + 1
                record.prefix_state = capture.snapshot()
    record.ended_at = clock()


def install_engine_spans(dep: Deployment, tracer: Tracer) -> None:
    """Instance-level wrappers on each in-process partition's engine.

    Installed from here, on the instances, so ``src/`` is untouched; the
    worker-hosted fleet's engines live in other processes and stay dark.
    """
    for replica_set in dep.cluster.replica_sets:
        for replica in replica_set.replicas:
            engine = replica.engine
            index = engine.dynamic_index
            engine.process_batch_grouped = tracer.wrap(
                "core.engine", engine.process_batch_grouped
            )
            index.insert_batch = tracer.wrap(
                "graph.d_insert", index.insert_batch
            )
            index.fresh_sources_multi = tracer.wrap(
                "graph.d_scan", index.fresh_sources_multi
            )
            for detector in engine.detectors:
                detector.process_batch = tracer.wrap(
                    "core.detect", detector.process_batch
                )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One pass: a fresh deployment driven over the whole stream."""

    record: LoopRecord
    #: Deployment build, worker spawn, WAL root and warm-up flushes.
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    reader: Reader | None
    tracer: Tracer | None
    #: Layer counters read from the layers' public stats after the window.
    stats: dict[str, float]
    #: ``(funnel totals, served state arrays)`` after the last flush.
    final_state: tuple

    @property
    def wall_s(self) -> float:
        return self.record.ended_at - self.record.started_at


def layer_stats(
    dep: Deployment, traced: bool, now: float, record: LoopRecord
) -> dict[str, float]:
    """Counts from the layers' own public stats; 0 where a layer is absent."""
    stats: dict[str, float] = {}
    broker = dep.cluster.broker.stats
    stats["cluster.fan_out_calls"] = broker.fan_out_calls
    stats["cluster.lost_events"] = broker.partitions_lost_events
    stats["cluster.events_routed"] = broker.events_routed
    stats["core.candidates"] = broker.gather_results
    wire = getattr(dep.cluster.transport, "wire_stats", lambda: None)() or {}
    stats["cluster.shm_frames"] = wire.get("frames_shm", 0.0)
    stats["cluster.shm_fallback_share"] = wire.get("fallback_rate", 0.0)
    seen = below = 0
    if dep.workload.transport == "inprocess":
        for replica_set in dep.cluster.replica_sets:
            for detector in replica_set.replicas[0].engine.detectors:
                seen += detector.stats.events_seen
                below += detector.stats.below_threshold
    stats["core.below_threshold_share"] = below / seen if seen else 0.0
    memory = dep.cluster.memory_report()
    stats["graph.d_bytes"] = memory["dynamic_index"]
    stats["graph.s_bytes"] = memory["static_index"]

    durability = dep.durability.stats()
    stats["durability.wal_records"] = durability["wal_records"]
    stats["durability.wal_bytes"] = durability["wal_bytes"]
    stats["durability.wal_fsyncs"] = dep.durability.wal.syncs
    stats["durability.events_logged"] = dep.durability.events_logged
    stats["durability.snapshot_s"] = 0.0
    stats["durability.snapshot_bytes"] = 0.0
    if traced:
        started = clock()
        dep.durability.snapshot(
            now,
            delivery=dep.delivery,
            notifications=record.notifications,
            serving=dep.serving,
        )
        stats["durability.snapshot_s"] = clock() - started
        stats["durability.snapshot_bytes"] = dep.durability.stats()[
            "snapshot_full_bytes"
        ]

    funnel = dep.funnel_totals()
    raw = funnel.get("raw", 0)
    stats["delivery.delivered"] = funnel.get("delivered", 0)
    for stage in ("dedup", "waking_hours", "fatigue"):
        stats[f"delivery.{stage}_drops"] = funnel.get(f"dropped:{stage}", 0)
    stats["delivery.funnel_raw"] = raw
    stats["delivery.lost_candidates"] = getattr(
        dep.delivery, "notifications_lost_shards", 0
    )
    shard_wire = (
        dep.delivery.wire_stats() if dep.workload.sharded else None
    ) or {}
    stats["delivery.shm_fallback_share"] = shard_wire.get("fallback_rate", 0.0)

    serving = dep.serving
    stats["serving.rows_ingested"] = serving.rows_ingested
    stats["serving.users_cached"] = serving.users_cached
    stats["serving.bytes_per_user"] = serving.bytes_per_user()
    stats["delivery.shard_skew"] = 0.0
    if dep.workload.sharded:
        rows = [shard["rows_ingested"] for shard in serving.shard_stats()]
        mean = sum(rows) / len(rows)
        stats["delivery.shard_skew"] = max(rows) / mean if mean else 0.0
    return stats


def run_pass(
    workload: Workload,
    inputs: Inputs,
    traced: bool,
    capture_budget: tuple[int, float],
) -> Pass:
    """Build, warm up, measure, read the layers' stats, tear down."""
    started = clock()
    flushes = len(inputs.bounds) - 1
    dep = Deployment(workload, inputs.snapshot)
    reader = None
    try:
        record = LoopRecord()

        def snapshot_state() -> tuple:
            return dep.funnel_totals(), dep.serving.state_arrays()

        capture = Capture(
            capture_budget[0],
            max(inputs.warmup_flushes + 1, int(flushes * capture_budget[1])),
            snapshot_state,
        )
        run_flushes(dep, inputs, 0, inputs.warmup_flushes, record, None, capture)
        tracer = None
        if traced:
            tracer = Tracer()
            if workload.transport == "inprocess":
                install_engine_spans(dep, tracer)
        gc.collect()  # set-up garbage is not the first timed flush's to pay
        pids = dep.worker_pids()
        if workload.reader:
            reader = Reader(dep.serving, inputs.read_users, READ_QPS)
        cpu_before = cpu_seconds(pids)
        setup_s = clock() - started
        if reader is not None:
            reader.started_at = clock()
            reader.start()
        try:
            run_flushes(
                dep, inputs, inputs.warmup_flushes, flushes, record, tracer,
                capture,
            )
        finally:
            if reader is not None:
                reader.stop()
        cpu_s = cpu_seconds(pids) - cpu_before
        rss = peak_rss_mb(pids)
        if not record.prefix_flushes:
            record.prefix_flushes = flushes
            record.prefix_state = snapshot_state()
        final_state = snapshot_state()
        stats = layer_stats(dep, traced, inputs.nows[-1], record)
        return Pass(
            record, setup_s, cpu_s, rss, reader, tracer, stats, final_state
        )
    finally:
        dep.close()
