#!/usr/bin/env python3
"""Operations runbook: a day in the life of the serving fleet.

Walks the operational features a production deployment leans on, in the
order an operator meets them: health monitoring, a replica failure with
alerting, resync, the periodic offline S reload, a traffic spike handled
by admission control, and a D checkpoint for fast replica bootstrap.

Run:  python examples/ops_runbook.py
"""

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams
from repro.gen import TwitterGraphConfig, generate_follow_graph, \
    StreamConfig, generate_event_stream
from repro.ops import AdmissionController, AdmissionPolicy, ClusterMonitor


def main() -> None:
    num_users = 2_000
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=num_users, mean_followings=12.0, seed=21)
    )
    events = generate_event_stream(
        StreamConfig(num_users=num_users, duration=600.0, background_rate=5.0, seed=21)
    )
    params = DetectionParams(k=2, tau=900.0)
    config = ClusterConfig(num_partitions=3, replication_factor=2)
    cluster = Cluster.build(snapshot, params, config)
    monitor = ClusterMonitor(cluster)
    third = len(events) // 3

    print("== steady state ==")
    for event in events[:third]:
        cluster.process_event(event)
    print(f"alerts: {monitor.alerts() or 'none'}")

    print("\n== replica p0/r1 dies ==")
    cluster.replica_sets[0].mark_down(1)
    for event in events[third : 2 * third]:
        cluster.process_event(event)
    for alert in monitor.alerts():
        print(f"  ALERT: {alert}")

    print("\n== resync and rejoin ==")
    cluster.replica_sets[0].resync(1)
    print(f"alerts after resync: {monitor.alerts() or 'none'}")

    print("\n== periodic offline S reload (no downtime) ==")
    fresh_snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=num_users, mean_followings=12.0, seed=22)
    )
    cluster.reload_snapshot(fresh_snapshot, influencer_limit=100)
    for event in events[2 * third :]:
        cluster.process_event(event)
    print("stream kept flowing through the reload; "
          f"alerts: {monitor.alerts() or 'none'}")

    print("\n== traffic spike with admission control ==")
    controller = AdmissionController(
        rate=50.0, burst=100.0, policy=AdmissionPolicy.SAMPLE, sample_one_in=20
    )
    admitted = sum(controller.admit(now=0.0) for _ in range(2_000))
    print(f"spike of 2000 events at one instant: {admitted} admitted, "
          f"shed fraction {controller.shed_fraction():.1%} (sampled 1-in-20)")

    print("\n== D checkpoint for replica bootstrap ==")
    # The control messages the durability tier snapshots and recovers with.
    arrays = cluster.checkpoint_dynamic()
    replacement = Cluster.build(fresh_snapshot, params, config)
    restored = replacement.load_dynamic(arrays)
    source = cluster.replica_sets[0].replicas[0].engine.dynamic_index
    size_kb = sum(column.nbytes for column in arrays.values()) / 1024
    print(f"checkpointed {len(arrays['targets'])} recent edges "
          f"({size_kb:.0f} KB of arrays); a fresh cluster restored "
          f"{restored} edges into its D")
    assert restored == source.num_edges

    print("\nops runbook complete. ✓")


if __name__ == "__main__":
    main()
