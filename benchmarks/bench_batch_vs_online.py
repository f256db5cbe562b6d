"""E17 (extension) — the "novel twist": online detection vs batch census.

Paper §1: "Nearly all approaches to motif detection are based on a static
graph snapshot and viewed as batch computations.  Our novel 'twist' is to
identify motifs as they are being formed in real time and trigger
appropriate actions."

This experiment makes the contrast quantitative.  The classical approach
(:mod:`repro.analysis.census`, Milo-style) re-scans a static snapshot; run
every T seconds it costs a full-graph pass and surfaces motifs a mean of
T/2 late.  The online detector pays microseconds per edge and surfaces
each motif at the edge that completes it.
"""

import time

import pytest

from repro.analysis.census import count_motifs
from repro.bench.workloads import bursty_workload
from repro.core import DetectionParams, MotifEngine
from repro.graph.csr import CsrGraph


@pytest.fixture(scope="module")
def workload():
    return bursty_workload(
        num_users=4_000, duration=600.0, background_rate=3.0, burst_actors=60
    )


def test_batch_census_vs_online(benchmark, workload, report):
    snapshot, events = workload
    params = DetectionParams(k=2, tau=600.0)

    # The static end-state graph a batch job would analyse: offline
    # follows plus every streamed edge.
    all_edges = list(snapshot.follow_edges()) + [
        (e.actor, e.target) for e in events
    ]
    static_graph = CsrGraph.from_edges(all_edges, num_nodes=snapshot.num_users)

    def census():
        return count_motifs(static_graph)

    started = time.perf_counter()
    counts = census()
    census_seconds = time.perf_counter() - started

    engine = MotifEngine.from_snapshot(snapshot, params)

    def online():
        engine.dynamic_index.prune_expired(float("inf"))
        # The per-event reference, by name: process_stream batches.
        return [rec for event in events for rec in engine.process(event)]

    recs = benchmark.pedantic(online, rounds=1, iterations=1)
    online_seconds = benchmark.stats.stats.mean
    per_event = online_seconds / len(events)

    table = report.table(
        "E17",
        "batch motif census vs online detection (the paper's 'novel twist')",
        ["property", "batch census (Milo-style)", "online (this paper)"],
    )
    table.add_row(
        "one pass over the data",
        f"{census_seconds:.2f} s (full graph rescan)",
        f"{online_seconds:.2f} s ({per_event * 1e6:.0f} us/event, incremental)",
    )
    table.add_row(
        "what it finds",
        f"{counts.diamonds} untimed diamond instances",
        f"{len(recs)} timed, per-recipient candidates",
    )
    table.add_row(
        "freshness of a motif found",
        "stale by T/2 for rescan period T",
        "detected at the completing edge (ms)",
    )
    table.add_row(
        "supports 'trigger appropriate actions'",
        "no timestamps, no freshness window",
        "yes: tau-filtered, push-ready",
    )
    table.add_note(
        "the census counts every diamond ever formed (no tau window); the "
        "online path reports only fresh completions with recipients — "
        "different objects, which is precisely the paper's point"
    )

    assert counts.diamonds > 0, "static graph should contain diamonds"
    assert len(recs) > 0, "online detection should fire on the bursts"
    # The structural contrast: per-event online cost must be orders of
    # magnitude below one full rescan.
    assert per_event < census_seconds / 100
