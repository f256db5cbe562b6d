#!/usr/bin/env python3
"""The full production stack, end to end, with the paper's latency shape.

Everything at once: edge events replayed through simulated message queues
(calibrated to the paper's 7 s median / 15 s p99), a broker fanning out to
a partitioned + replicated cluster, per-event graph queries measured in
real milliseconds, and the delivery funnel (dedup, waking hours, fatigue)
deciding which candidates become push notifications.

Run:  python examples/end_to_end_cluster.py
"""

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams
from repro.delivery import DeliveryPipeline
from repro.gen import BurstSpec, StreamConfig, TwitterGraphConfig, \
    generate_event_stream, generate_follow_graph
from repro.streaming import StreamingTopology
from repro.topology import TopologyConfig


def main() -> None:
    num_users = 3_000
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=num_users, mean_followings=15.0, seed=42)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=num_users,
            duration=1_800.0,
            background_rate=5.0,
            bursts=(
                BurstSpec(target=2_900, start=100.0, duration=900.0, num_actors=150),
                BurstSpec(target=2_950, start=600.0, duration=600.0, num_actors=120),
            ),
            seed=42,
        )
    )
    print(f"graph: {num_users} users / {snapshot.num_edges} edges; "
          f"stream: {len(events)} events over 30 simulated minutes\n")

    cluster = Cluster.build(
        snapshot,
        DetectionParams(k=3, tau=3600.0),
        ClusterConfig(num_partitions=4, replication_factor=2),
    )
    topology = StreamingTopology(
        cluster, delivery=DeliveryPipeline(), config=TopologyConfig(seed=7)
    )
    report = topology.run(events)

    print(f"events ingested      : {report.events_ingested}")
    print(f"raw candidates       : {report.candidates_detected}")
    print(f"push notifications   : {len(report.notifications)}")
    funnel = topology.delivery.funnel
    for stage, count in funnel.as_rows():
        print(f"    {stage:<22} {count}")

    summary = report.breakdown.summary()
    total = summary["total"]
    detection = summary["detection"]
    print("\nend-to-end latency (edge creation -> push):")
    print(f"  median = {total['p50']:.1f}s   p99 = {total['p99']:.1f}s "
          "(paper: ~7s median, ~15s p99)")
    print(f"graph queries: p50 = {detection['p50'] * 1e3:.2f}ms, "
          f"p99 = {detection['p99'] * 1e3:.2f}ms "
          "(paper: 'a few milliseconds')")
    print(f"queue share of total latency     : {report.queue_share():.1%}")
    print(f"detection share of total latency : {report.detection_share():.3%}")
    print("\n'Nearly all the latency comes from event propagation delays in "
          "various message queues.' ✓")


if __name__ == "__main__":
    main()
