"""Full-stack integration tests: scenario -> queues -> cluster -> funnel.

These exercise the complete production path the way the end-to-end
example does, with assertions on cross-component invariants instead of
timings (the benchmarks own the timings).
"""

import pytest

from repro.baselines.batch import BatchDiamondDetector
from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams
from repro.delivery import DedupFilter, DeliveryPipeline
from repro.gen import celebrity_join
from repro.ops import AdmissionController, AdmissionPolicy, ClusterMonitor
from repro.sim.latency import FixedDelay
from repro.streaming import StreamingTopology

PARAMS = DetectionParams(k=3, tau=3600.0)


@pytest.fixture(scope="module")
def scenario():
    return celebrity_join(num_users=1_500, followers_in_first_hour=120, seed=13)


@pytest.fixture(scope="module")
def cluster_factory(scenario):
    def build(**overrides):
        config = dict(num_partitions=3, replication_factor=2)
        config.update(overrides)
        return Cluster.build(scenario.snapshot, PARAMS, ClusterConfig(**config))

    return build


@pytest.fixture(scope="module")
def truth(scenario):
    """The batch ground truth, computed once for the module."""
    return BatchDiamondDetector(
        list(scenario.snapshot.follow_edges()), PARAMS
    ).run(scenario.events)


@pytest.fixture(scope="module")
def truth_pairs(truth):
    return {(c.recipient, c.candidate) for c in truth}


def fixed_hops(seconds=0.5):
    return {name: FixedDelay(seconds) for name in ("firehose", "fanout", "push")}


@pytest.fixture(scope="module")
def unfiltered_run(scenario, cluster_factory):
    """One unfiltered topology run: its cluster and its report."""
    cluster = cluster_factory()
    topology = StreamingTopology(
        cluster, delivery=DeliveryPipeline(filters=[]), hop_models=fixed_hops()
    )
    return cluster, topology.run(scenario.events)


class TestFullStack:
    def test_candidates_match_batch_ground_truth(self, unfiltered_run, truth):
        """Queues + cluster + gather must not lose or invent candidates."""
        _cluster, report = unfiltered_run
        want = sorted((c.time, c.recipient, c.candidate) for c in truth)
        got = sorted(
            (n.recommendation.created_at, n.recipient, n.recommendation.candidate)
            for n in report.notifications
        )
        assert got == want

    def test_dedup_delivers_distinct_pairs_exactly_once(
        self, scenario, cluster_factory, truth_pairs
    ):
        topology = StreamingTopology(
            cluster_factory(),
            delivery=DeliveryPipeline(filters=[DedupFilter(window=1e9)]),
            hop_models=fixed_hops(),
        )
        report = topology.run(scenario.events)
        pairs = [
            (n.recipient, n.recommendation.candidate)
            for n in report.notifications
        ]
        assert len(pairs) == len(set(pairs)), "dedup let a duplicate through"
        assert set(pairs) == truth_pairs

    def test_monitor_stays_clean_through_the_run(self, scenario, unfiltered_run):
        cluster, _report = unfiltered_run
        monitor = ClusterMonitor(cluster)
        assert monitor.alerts() == []
        health = monitor.poll()
        counts = {
            replica.events_processed
            for partition in health
            for replica in partition.replicas
        }
        assert counts == {len(scenario.events)}, (
            "every replica of every partition must consume the full stream"
        )

    def test_admission_control_sheds_under_overload(
        self, scenario, cluster_factory, truth_pairs
    ):
        admission = AdmissionController(
            rate=1.0, burst=10.0, policy=AdmissionPolicy.DROP
        )
        topology = StreamingTopology(
            cluster_factory(),
            delivery=DeliveryPipeline(filters=[]),
            hop_models=fixed_hops(),
            admission=admission,
        )
        report = topology.run(scenario.events)
        consumer = topology.consumer
        assert consumer.events_shed > 0
        assert consumer.events_consumed + consumer.events_shed == len(scenario.events)
        assert admission.shed_fraction() > 0.0
        # Shedding degrades recall but must never corrupt what survives.
        got_pairs = {
            (n.recipient, n.recommendation.candidate)
            for n in report.notifications
        }
        # Every surviving recommendation must also exist in an unshedded
        # run... except pairs whose witness sets were altered by sheds.
        # The robust invariant: shedding can only reduce, never exceed,
        # the candidate volume of the unshedded run.
        assert len(got_pairs) <= len(truth_pairs)

    def test_replica_failure_and_resync_mid_stream(self, scenario, cluster_factory):
        """Drives the shipped batched lane; the per-event resync cases
        live in ``tests/test_cluster.py``."""
        cluster = cluster_factory()
        events = scenario.events
        third = len(events) // 3

        cluster.process_stream(events[:third], batch_size=64)
        cluster.replica_sets[0].mark_down(1)
        cluster.process_stream(events[third : 2 * third], batch_size=64)
        assert cluster.replica_sets[0].missed_events[1] == third
        cluster.replica_sets[0].resync(1)
        cluster.process_stream(events[2 * third :], batch_size=64)

        # After resync the repaired replica converges with its sibling.
        replica_set = cluster.replica_sets[0]
        d0 = replica_set.replicas[0].engine.dynamic_index
        d1 = replica_set.replicas[1].engine.dynamic_index
        assert d0.num_edges == d1.num_edges
        monitor = ClusterMonitor(cluster)
        assert not any("ALL REPLICAS DOWN" in a for a in monitor.alerts())
