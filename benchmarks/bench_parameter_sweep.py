"""E12 — The tunable parameters: "(where k and tau are tunable parameters)".

Paper: k = 2 in the worked example, k = 3 in production.  This experiment
sweeps both knobs on one workload and reports candidate volume, distinct
(user, candidate) pairs, and per-event detection cost — the trade-off
surface a production owner tunes.
"""

import itertools

import pytest

from repro.bench.workloads import bursty_workload
from repro.core import DetectionParams, MotifEngine

K_VALUES = [1, 2, 3, 4]
TAU_VALUES = [300.0, 1800.0]


@pytest.fixture(scope="module")
def workload():
    return bursty_workload(
        num_users=8_000, duration=600.0, background_rate=5.0, burst_actors=80
    )


def test_k_tau_sweep(benchmark, workload, report):
    snapshot, events = workload
    results = {}

    def sweep():
        for k, tau in itertools.product(K_VALUES, TAU_VALUES):
            engine = MotifEngine.from_snapshot(
                snapshot,
                DetectionParams(k=k, tau=tau, max_trigger_sources=64),
            )
            # Per-event lane by name: the p99 column is a per-query time.
            recs = [rec for event in events for rec in engine.process(event)]
            results[(k, tau)] = (
                len(recs),
                len({(r.recipient, r.candidate) for r in recs}),
                engine.stats.query_latency.percentile(99),
            )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = report.table(
        "E12",
        "k / tau parameter sweep (paper: k=2 example, k=3 production)",
        ["k", "tau", "raw candidates", "distinct pairs", "query p99"],
    )
    for k, tau in itertools.product(K_VALUES, TAU_VALUES):
        raw, distinct, p99 = results[(k, tau)]
        marker = "  <- production" if (k == 3 and tau == 1800.0) else ""
        table.add_row(k, f"{tau:g}s", raw, distinct, f"{p99 * 1e3:.2f} ms{marker}")
    table.add_note(
        "raising k demands more corroboration (fewer, higher-precision "
        "candidates); raising tau accepts staler corroboration (more)"
    )

    for tau in TAU_VALUES:
        volumes = [results[(k, tau)][0] for k in K_VALUES]
        assert volumes == sorted(volumes, reverse=True), (
            f"candidate volume must fall monotonically with k at tau={tau}"
        )
    for k in K_VALUES:
        assert results[(k, 300.0)][0] <= results[(k, 1800.0)][0], (
            f"larger tau must not reduce volume at k={k}"
        )
    assert results[(1, 1800.0)][0] > 5 * results[(4, 1800.0)][0], (
        "k=1 (wedge) should dwarf k=4 in raw volume"
    )
