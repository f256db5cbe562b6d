"""E9 — The polling baseline: "the latency would be unacceptably large".

Paper: "One could poll each user's network periodically to see if the
motif has been formed since the last query; however, the latency would be
unacceptably large."

We sweep the poll interval and compare detection delay and query load to
the event-driven detector, which reacts within milliseconds of the edge
and touches the graph only when an edge actually arrives.
"""

import pytest

from repro.baselines.polling import run_polling_simulation
from repro.bench.workloads import bursty_workload
from repro.core import DetectionParams, MotifEngine

PARAMS = DetectionParams(k=3, tau=900.0)
POLL_INTERVALS = [10.0, 60.0, 300.0]


@pytest.fixture(scope="module")
def workload():
    # Small user count: each poll sweeps every user, the design's flaw.
    return bursty_workload(
        num_users=2_000, duration=1_200.0, background_rate=2.0, burst_actors=50
    )


def test_polling_vs_event_driven(benchmark, workload, report):
    snapshot, events = workload
    follows = list(snapshot.follow_edges())
    duration = 1_200.0

    reports = {}

    def sweep():
        for interval in POLL_INTERVALS:
            reports[interval] = run_polling_simulation(
                follows,
                events,
                poll_interval=interval,
                params=PARAMS,
                duration=duration,
            )
        return reports

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Event-driven reference: detection delay is the measured query time
    # of the per-event lane (called by name: process_stream batches).
    engine = MotifEngine.from_snapshot(snapshot, PARAMS)
    for event in events:
        engine.process(event)
    event_driven_p50 = engine.stats.query_latency.percentile(50)
    event_driven_queries = len(events)

    table = report.table(
        "E9",
        "polling baseline vs event-driven detection",
        ["detector", "median delay", "p99 delay", "reads/s", "found"],
    )
    for interval in POLL_INTERVALS:
        polling = reports[interval]
        delay = polling.delay
        table.add_row(
            f"poll every {interval:g}s",
            f"{delay.median():.1f} s" if len(delay) else "-",
            f"{delay.percentile(99):.1f} s" if len(delay) else "-",
            f"{polling.reads_per_second(duration):,.0f}",
            len(polling.recommendations),
        )
    table.add_row(
        "event-driven (this paper)",
        f"{event_driven_p50 * 1e3:.2f} ms",
        f"{engine.stats.query_latency.percentile(99) * 1e3:.2f} ms",
        f"{event_driven_queries / duration:,.0f}",
        engine.stats.recommendations_emitted,
    )
    table.add_note(
        "polling delay ~ interval/2 regardless of tuning; its read volume "
        "scales with users/interval instead of with the event rate"
    )

    for interval in POLL_INTERVALS:
        delay = reports[interval].delay
        assert len(delay) > 0, f"polling at {interval}s found nothing"
        # Uniform event arrival inside the poll window: mean ~ interval/2.
        assert 0.2 * interval < delay.stats.mean < 0.95 * interval
        # The headline claim: polling latency dwarfs the event-driven path.
        assert delay.median() > 100 * event_driven_p50
    # Tighter polling costs proportionally more reads.
    reads = [reports[i].adjacency_reads for i in POLL_INTERVALS]
    assert reads[0] > reads[1] > reads[2]
