"""Turn the passes of one run into the named metrics of BENCHMARK.json.

A run is :data:`PASSES` passes over the same generated stream, each on a
freshly built deployment, so every flush is timed several times.  On
this shared 2-core box interference comes in phases of seconds and only
ever adds time, so each flush (and each read) is represented by its
*fastest* pass; latency percentiles and throughput are then taken over
events as usual.  Set-up, which cannot be decomposed that way, is
reported as the median over the passes.

End-to-end metrics come from untraced passes, per-layer metrics from
traced ones (the quietest traced pass supplies the spans).  Counts read
from the layers' own stats cover the warm-up flushes as well, which is
why they repeat exactly for a given ``(workload, seed, scale)``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from harness import Inputs, Pass
from workloads import SERVABLE_LIMIT_MS, Workload

#: Passes per run; the measured seconds are split evenly between them.
PASSES = 3

Metrics = dict[str, dict[str, float | str]]


@dataclass
class Run:
    """One invocation: generated inputs plus the passes made over them."""

    workload: Workload
    inputs: Inputs
    #: Process start until the inputs exist (imports, graph, stream).
    inputs_s: float
    passes: list[Pass]

    @property
    def timed_events(self) -> int:
        bounds = self.inputs.bounds
        return bounds[-1] - bounds[self.inputs.warmup_flushes]


def _metric(value: float, unit: str) -> dict[str, float | str]:
    return {"value": float(value), "unit": unit}


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _fastest(per_pass: list[np.ndarray]) -> np.ndarray:
    """Element-wise minimum over passes (over their common length)."""
    n = min(len(values) for values in per_pass)
    return np.min([values[:n] for values in per_pass], axis=0)


def measured_seconds(run: Run) -> float:
    """The run's interference-free wall for its timed events.

    Closed loop: each flush's time since the previous one completed,
    fastest pass, summed.  Open loop: the schedule sets the wall, so the
    fastest pass's wall as it is.
    """
    if run.workload.paced_rate is not None:
        return min(p.wall_s for p in run.passes)
    warmup = run.inputs.warmup_flushes
    return float(
        _fastest(
            [
                np.diff(np.r_[p.record.started_at, p.record.done[warmup:]])
                for p in run.passes
            ]
        ).sum()
    )


def pass_latencies_ms(run: Run, p: Pass) -> np.ndarray:
    """Per timed event of one pass: due (open loop) or taken (closed
    loop) until its flush's rows are servable and notifications returned."""
    warmup = run.inputs.warmup_flushes
    sizes = np.diff(np.asarray(run.inputs.bounds))[warmup:]
    done = np.repeat(np.asarray(p.record.done[warmup:]), sizes)
    rate = run.workload.paced_rate
    if rate is None:
        due = np.repeat(np.asarray(p.record.due[warmup:]), sizes)
    else:
        due = p.record.started_at + np.arange(1, len(done) + 1) / rate
    return (done - due) * 1e3


def event_latencies_ms(run: Run) -> np.ndarray:
    """Event-to-servable latency per timed event, fastest pass."""
    return _fastest([pass_latencies_ms(run, p) for p in run.passes])


def read_latencies_us(run: Run) -> tuple[np.ndarray, np.ndarray]:
    """Per read: (from due time, call duration) in microseconds; read *i*
    asks for the same user in every pass, so again the fastest pass."""
    samples = [
        np.asarray(p.reader.samples) for p in run.passes
        if p.reader is not None and p.reader.samples
    ]
    if not samples:
        return np.zeros(0), np.zeros(0)
    return (
        _fastest([(s[:, 2] - s[:, 0]) * 1e6 for s in samples]),
        _fastest([(s[:, 2] - s[:, 1]) * 1e6 for s in samples]),
    )


def outcome(run: Run) -> tuple[int, int]:
    """``(attempted, failed)`` operations over all passes."""
    attempted = failed = 0
    for p in run.passes:
        attempted += run.timed_events
        failed += int(
            p.stats["cluster.lost_events"] + p.stats["delivery.lost_candidates"]
        )
        if p.reader is not None:
            attempted += len(p.reader.samples)
            failed += p.reader.raised
        if run.workload.paced_rate is not None:
            late = pass_latencies_ms(run, p) > SERVABLE_LIMIT_MS
            failed += int(late.sum())
    return attempted, failed


def end_to_end(run: Run) -> Metrics:
    latencies = event_latencies_ms(run)
    events = run.timed_events
    return {
        "setup_s": _metric(
            run.inputs_s + statistics.median(p.setup_s for p in run.passes),
            "s",
        ),
        "events_per_s": _metric(events / measured_seconds(run), "events/s"),
        "peak_rss_mb": _metric(max(p.peak_rss_mb for p in run.passes), "MB"),
        "e2s_p50_ms": _metric(_percentile(latencies, 50), "ms"),
    }


def span_table(spans: list[tuple]) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total seconds, self seconds, calls)."""
    child_time = [0.0] * len(spans)
    for _name, started, ended, parent, _flush in spans:
        if parent >= 0:
            child_time[parent] += ended - started
    table: dict[str, tuple[float, float, int]] = {}
    for (name, started, ended, _parent, _flush), children in zip(
        spans, child_time
    ):
        total, own, calls = table.get(name, (0.0, 0.0, 0))
        duration = ended - started
        table[name] = (total + duration, own + duration - children, calls + 1)
    return table


def busy_seconds(run: Run, p: Pass) -> float:
    """The window a pass's spans must cover: the wall of a closed loop,
    the time between taking a batch and finishing it in the open loop
    (which sleeps until the next batch is due)."""
    if run.workload.paced_rate is None:
        return p.wall_s
    warmup = run.inputs.warmup_flushes
    return float(
        np.sum(
            np.asarray(p.record.done[warmup:])
            - np.asarray(p.record.begun[warmup:])
        )
    )


def quietest(run: Run) -> Pass:
    """The pass least disturbed: its spans make the stage table."""
    return min(run.passes, key=lambda p: busy_seconds(run, p))


def per_layer(run: Run) -> Metrics:
    quiet = quietest(run)
    assert quiet.tracer is not None
    table = span_table(quiet.tracer.spans)
    stats = quiet.stats
    record = quiet.record
    warmup = run.inputs.warmup_flushes
    all_events = run.inputs.bounds[-1]

    def total(name: str) -> float:
        return table.get(name, (0.0, 0.0, 0))[0]

    def own(name: str) -> float:
        return table.get(name, (0.0, 0.0, 0))[1]

    busy = busy_seconds(run, quiet)
    covered = sum(
        seconds for name, (_t, seconds, _n) in table.items()
        if name != "streaming.flush"
    )

    rate = run.workload.paced_rate
    batch_wait_p50 = gen_lag_p99 = 0.0
    backlog_max = backlog_end = 0
    if rate is not None:
        bounds = np.asarray(run.inputs.bounds[warmup:]) - run.inputs.bounds[warmup]
        sizes = np.diff(bounds)
        event_due = np.arange(1, bounds[-1] + 1) / rate
        batch_due = np.repeat(bounds[1:] / rate, sizes)
        batch_wait_p50 = _percentile((batch_due - event_due) * 1e3, 50)
        begun = np.asarray(record.begun[warmup:])
        gen_lag_p99 = _percentile(
            (begun - np.asarray(record.due[warmup:])) * 1e3, 99
        )
        due_by_then = np.floor((begun - record.started_at) * rate)
        backlog = np.maximum(due_by_then - bounds[1:], 0)
        backlog_max, backlog_end = int(backlog.max()), int(backlog[-1])

    from_due, call = read_latencies_us(run)
    reads = sum(len(p.reader.samples) for p in run.passes if p.reader)
    hits = sum(p.reader.hits for p in run.passes if p.reader)
    writer_lag = max(
        (p.reader.writer_lag_max for p in run.passes if p.reader), default=0
    )
    tail = event_latencies_ms(run)
    raw = stats["delivery.funnel_raw"]
    candidates = stats["core.candidates"]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {
        "streaming.flushes": (len(record.done) - warmup, "count"),
        "streaming.slice_s": (own("streaming.slice"), "s"),
        "streaming.batch_wait_p50_ms": (batch_wait_p50, "ms"),
        "streaming.backlog_max_events": (backlog_max, "events"),
        "streaming.backlog_end_events": (backlog_end, "events"),
        "streaming.gen_lag_p99_ms": (gen_lag_p99, "ms"),
        "streaming.e2s_p90_ms": (_percentile(tail, 90), "ms"),
        "streaming.e2s_p99_ms": (_percentile(tail, 99), "ms"),
        "durability.wal_append_s": (own("durability.wal_append"), "s"),
        "durability.wal_records": (stats["durability.wal_records"], "count"),
        "durability.wal_bytes_per_event": (
            stats["durability.wal_bytes"] / all_events, "bytes"),
        "durability.wal_fsyncs": (stats["durability.wal_fsyncs"], "count"),
        "durability.snapshot_s": (stats["durability.snapshot_s"], "s"),
        "durability.snapshot_bytes": (
            stats["durability.snapshot_bytes"], "bytes"),
        "cluster.submit_s": (total("cluster.submit"), "s"),
        "cluster.gather_s": (total("cluster.gather"), "s"),
        "cluster.broker_self_s": (
            own("cluster.submit") + own("cluster.gather"), "s"),
        "cluster.fan_out_calls": (stats["cluster.fan_out_calls"], "count"),
        "cluster.lost_events": (stats["cluster.lost_events"], "events"),
        "cluster.shm_frames": (stats["cluster.shm_frames"], "count"),
        "cluster.shm_fallback_share": (
            stats["cluster.shm_fallback_share"], "share"),
        "core.engine_self_s": (own("core.engine"), "s"),
        "core.detect_self_s": (own("core.detect"), "s"),
        "core.concat_s": (own("core.concat"), "s"),
        "core.triggers": (record.triggers, "count"),
        "core.candidates": (candidates, "count"),
        "core.below_threshold_share": (
            stats["core.below_threshold_share"], "share"),
        "graph.d_insert_s": (own("graph.d_insert"), "s"),
        "graph.d_scan_s": (own("graph.d_scan"), "s"),
        "graph.d_bytes": (stats["graph.d_bytes"], "bytes"),
        "graph.s_bytes": (stats["graph.s_bytes"], "bytes"),
        "delivery.rank_offer_s": (own("delivery.rank_offer"), "s"),
        "delivery.rank_flush_s": (own("delivery.rank_flush"), "s"),
        "delivery.released": (record.released, "count"),
        "delivery.rank_keep_share": (
            share(record.released, candidates), "share"),
        "delivery.funnel_s": (own("delivery.funnel"), "s"),
        "delivery.delivered": (stats["delivery.delivered"], "count"),
        "delivery.dedup_drop_share": (
            share(stats["delivery.dedup_drops"], raw), "share"),
        "delivery.waking_drop_share": (
            share(stats["delivery.waking_hours_drops"], raw), "share"),
        "delivery.fatigue_drop_share": (
            share(stats["delivery.fatigue_drops"], raw), "share"),
        "delivery.lost_candidates": (
            stats["delivery.lost_candidates"], "count"),
        "delivery.shm_fallback_share": (
            stats["delivery.shm_fallback_share"], "share"),
        "delivery.shard_skew": (stats["delivery.shard_skew"], "ratio"),
        "serving.merge_s": (own("serving.merge"), "s"),
        "serving.rows_ingested": (stats["serving.rows_ingested"], "count"),
        "serving.users_cached": (stats["serving.users_cached"], "count"),
        "serving.bytes_per_user": (stats["serving.bytes_per_user"], "bytes"),
        "serving.read_call_p50_us": (_percentile(call, 50), "us"),
        "serving.read_call_p99_us": (_percentile(call, 99), "us"),
        "serving.read_due_p50_us": (_percentile(from_due, 50), "us"),
        "serving.read_due_p90_us": (_percentile(from_due, 90), "us"),
        "serving.read_due_p99_us": (_percentile(from_due, 99), "us"),
        "serving.hit_share": (share(hits, reads), "share"),
        "serving.writer_lag_max": (writer_lag, "count"),
        "harness.cpu_ms_per_event": (
            min(p.cpu_s for p in run.passes) * 1e3 / run.timed_events, "ms"),
        "trace.overhead_share": (
            share(quiet.tracer.call_cost() * len(quiet.tracer.spans), busy),
            "share"),
        "trace.residual_share": (share(busy - covered, busy), "share"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in values.items()}
