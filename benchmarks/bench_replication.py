"""E14 — Replication: "for both fault tolerance and increased query
throughput".

Three properties measured:

* **read scaling** — with R replicas, round-robin reads put 1/R of the
  load on each replica (the throughput claim, in per-replica load terms
  since one Python process cannot parallelise);
* **fault tolerance** — killing a replica mid-stream loses nothing as
  long as one replica per partition survives;
* **ingest cost** — every replica consumes the full stream, so fleet
  ingest work scales with R (the price of the redundancy).
"""

import pytest

from repro.bench.workloads import bench_cluster, bursty_workload

REPLICAS = [1, 2, 3]


@pytest.fixture(scope="module")
def workload():
    return bursty_workload(
        num_users=4_000, duration=600.0, background_rate=4.0, burst_actors=60
    )


def test_read_load_scaling(benchmark, workload, report):
    snapshot, events = workload
    table = report.table(
        "E14",
        "replication: read scaling, failover, ingest cost",
        ["replicas", "reads/replica (10k reads)", "ingest s", "fleet D copies"],
    )

    results = {}

    def sweep():
        for r in REPLICAS:
            cluster = bench_cluster(snapshot, num_partitions=2, replication_factor=r)
            import time

            started = time.perf_counter()
            for event in events:
                cluster.process_event(event)
            ingest_seconds = time.perf_counter() - started

            hot_target = snapshot.num_users - 1
            now = events[-1].created_at
            for _ in range(10_000 // 20):
                for replica_set in cluster.replica_sets:
                    for _ in range(10):
                        replica_set.query_audience(hot_target, now)
            per_replica = [
                ch.stats.calls
                for rs in cluster.replica_sets
                for ch in rs.channels
            ]
            copies = len(
                {
                    id(replica.engine.dynamic_index)
                    for rs in cluster.replica_sets
                    for replica in rs.replicas
                }
            )
            results[r] = (max(per_replica) - len(events), ingest_seconds, copies)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    for r in REPLICAS:
        reads, ingest_seconds, copies = results[r]
        table.add_row(r, f"{reads:,}", f"{ingest_seconds:.2f}", copies)
    table.add_note(
        "per-replica read load falls ~1/R (horizontal read scaling); every "
        "replica ingests the full stream, but in-process replicas share one "
        "D (inserted once), so only the per-replica k-overlap work grows "
        "with R; a worker fleet holds one D per partition worker"
    )

    # Round-robin: each replica serves ~1/R of reads.
    assert results[2][0] < 0.6 * results[1][0]
    assert results[3][0] < 0.45 * results[1][0]


def test_failover_preserves_results(benchmark, workload, report):
    snapshot, events = workload
    midpoint = len(events) // 2

    def run_with_failure():
        cluster = bench_cluster(snapshot, num_partitions=2, replication_factor=2)
        out = []
        for i, event in enumerate(events):
            if i == midpoint:
                for replica_set in cluster.replica_sets:
                    replica_set.mark_down(0)  # kill every primary mid-stream
            out.extend(cluster.process_event(event))
        return out

    recs_with_failure = benchmark.pedantic(run_with_failure, rounds=1, iterations=1)

    healthy = bench_cluster(snapshot, num_partitions=2, replication_factor=1)
    expected = [rec for event in events for rec in healthy.process_event(event)]

    got = sorted((r.created_at, r.recipient, r.candidate) for r in recs_with_failure)
    want = sorted((r.created_at, r.recipient, r.candidate) for r in expected)
    assert got == want, "failover changed the result stream"

    for t in report.tables:
        if t.experiment_id == "E14":
            t.add_row(
                "failover",
                "primary killed mid-stream",
                "-",
                f"{len(got)} recs (identical)",
            )
            break
