"""Dynamics tests for the adaptive control plane (ops.controller).

The controller is pure decision logic over an injected actuation surface,
so most tests drive it with a recorder object and synthetic
:class:`LoadSignal`s — the interesting properties are *sequences*:
hysteresis must prevent flapping, escalation must grow the windows before
shedding, and recovery must release in the exact reverse order.
"""

from __future__ import annotations


import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import DetectionParams, EdgeEvent
from repro.delivery.pipeline import DeliveryPipeline
from repro.gen import (
    StreamConfig,
    TwitterGraphConfig,
    generate_event_stream,
    generate_follow_graph,
)
from repro.ops import (
    AdaptiveController,
    ControlMode,
    ControllerConfig,
    LoadSignal,
    MetricsRegistry,
)
from repro.sim.latency import FixedDelay
from repro.streaming import StreamingTopology
from repro.topology import TopologyConfig

PARAMS = DetectionParams(k=2, tau=600.0)


class RecorderKnobs:
    """Actuation recorder standing in for the live topology adapter."""

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def set_detection_knobs(self, batch_size: int, max_wait: float) -> None:
        self.calls.append(("detection", batch_size, max_wait))

    def set_delivery_knobs(self, batch_size: int, max_wait: float) -> None:
        self.calls.append(("delivery", batch_size, max_wait))

    def set_shedding(self, active: bool) -> None:
        self.calls.append(("shed", active))


def make_controller(**overrides) -> tuple[AdaptiveController, RecorderKnobs]:
    defaults = dict(
        backlog_high=10, backlog_low=2, max_level=3,
        cooldown_ticks=1, recover_ticks=2,
    )
    defaults.update(overrides)
    knobs = RecorderKnobs()
    controller = AdaptiveController(knobs, config=ControllerConfig(**defaults))
    return controller, knobs


HOT = LoadSignal(transport_backlog=100)
CALM = LoadSignal(transport_backlog=0)


def drive(controller: AdaptiveController, signal: LoadSignal, ticks: int) -> None:
    for i in range(ticks):
        controller.tick(float(i), signal)


class TestControllerConfig:
    def test_knob_ladder_endpoints(self):
        config = ControllerConfig()
        assert config.knobs_at(0) == (
            config.batch_floor,
            config.wait_floor,
            config.delivery_batch_floor,
            config.delivery_wait_floor,
        )
        assert config.knobs_at(config.max_level) == (
            config.batch_ceiling,
            config.wait_ceiling,
            config.delivery_batch_ceiling,
            config.delivery_wait_ceiling,
        )

    def test_knob_ladder_monotone(self):
        config = ControllerConfig()
        rungs = [config.knobs_at(level) for level in range(config.max_level + 1)]
        for lower, upper in zip(rungs, rungs[1:]):
            assert all(a <= b for a, b in zip(lower, upper))

    def test_geometric_spacing_covers_orders_of_magnitude(self):
        # 1 -> 256 over 4 rungs: each escalation multiplies by 4.
        config = ControllerConfig(batch_floor=1, batch_ceiling=256, max_level=4)
        sizes = [config.knobs_at(level)[0] for level in range(5)]
        assert sizes == [1, 4, 16, 64, 256]

    def test_degenerate_ladder_floor_equals_ceiling(self):
        config = ControllerConfig(batch_floor=8, batch_ceiling=8)
        assert config.knobs_at(0)[0] == config.knobs_at(config.max_level)[0] == 8

    def test_level_out_of_range_rejected(self):
        config = ControllerConfig(max_level=4)
        with pytest.raises(ValueError):
            config.knobs_at(5)
        with pytest.raises(ValueError):
            config.knobs_at(-1)

    def test_watermarks_must_leave_a_band(self):
        with pytest.raises(ValueError, match="hysteresis"):
            ControllerConfig(backlog_high=10, backlog_low=10)

    def test_ceiling_below_floor_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(batch_floor=64, batch_ceiling=8)
        with pytest.raises(ValueError):
            ControllerConfig(wait_floor=1.0, wait_ceiling=0.5)


class TestLoadSignal:
    def test_pressure_excludes_self_inflicted_buffering(self):
        # The controller's own micro-batch buffers must not count as
        # pressure, or a post-burst partial batch would deadlock recovery.
        signal = LoadSignal(
            transport_backlog=3, queued_events=4,
            pending_events=500, pending_candidates=500,
        )
        assert signal.pressure == 7


class TestEscalation:
    def test_construction_applies_floor_knobs_and_releases_shed(self):
        controller, knobs = make_controller()
        floor = controller.config.knobs_at(0)
        assert knobs.calls == [
            ("detection", floor[0], floor[1]),
            ("delivery", floor[2], floor[3]),
            ("shed", False),
        ]
        assert controller.mode is ControlMode.LATENCY

    def test_hot_pressure_climbs_one_rung_per_cooldown(self):
        controller, _ = make_controller(cooldown_ticks=2, max_level=3)
        levels = []
        for i in range(8):
            controller.tick(float(i), HOT)
            levels.append(controller.level)
        # One escalation every cooldown_ticks, saturating at max_level.
        assert levels == [1, 1, 2, 2, 3, 3, 3, 3]
        assert controller.mode is ControlMode.THROUGHPUT
        assert controller.escalations == 3

    def test_saturated_ladder_without_slo_never_sheds(self):
        controller, knobs = make_controller(slo_p99=None)
        drive(controller, HOT, 50)
        assert controller.level == controller.config.max_level
        assert not controller.shedding
        assert ("shed", True) not in knobs.calls

    def test_windows_grow_before_shed_engages(self):
        controller, knobs = make_controller(slo_p99=1.0)
        breach = LoadSignal(transport_backlog=100, recent_p99=5.0)
        drive(controller, breach, 20)
        assert controller.shedding
        # Monotone order: every knob actuation precedes the shed engage
        # (calls[:3] are the constructor's floor apply + shed-off).
        engage_at = knobs.calls.index(("shed", True))
        assert all(
            call[0] in ("detection", "delivery")
            for call in knobs.calls[3:engage_at]
        )
        ceiling = controller.config.knobs_at(controller.config.max_level)
        assert ("detection", ceiling[0], ceiling[1]) in knobs.calls[:engage_at]

    def test_breach_alone_escalates_even_when_pressure_is_low(self):
        # A breached SLO with a drained queue still means the posture is
        # wrong (e.g. detection itself too slow) — the ladder climbs.
        controller, _ = make_controller(slo_p99=1.0)
        controller.tick(0.0, LoadSignal(transport_backlog=0, recent_p99=9.0))
        assert controller.level == 1

    def test_missing_p99_never_breaches(self):
        controller, _ = make_controller(slo_p99=0.001)
        drive(controller, LoadSignal(transport_backlog=0, recent_p99=None), 10)
        assert controller.level == 0
        assert not controller.shedding


class TestHysteresisAndRecovery:
    def test_band_pressure_holds_posture(self):
        controller, knobs = make_controller(backlog_high=10, backlog_low=2)
        controller.tick(0.0, HOT)
        assert controller.level == 1
        before = len(knobs.calls)
        drive(controller, LoadSignal(transport_backlog=5), 100)
        assert controller.level == 1
        assert len(knobs.calls) == before  # zero actuations while in band

    def test_band_pressure_resets_calm_credit(self):
        controller, _ = make_controller(recover_ticks=2)
        controller.tick(0.0, HOT)
        # calm, band, calm, band, ... never accumulates recover_ticks.
        for i in range(20):
            signal = CALM if i % 2 == 0 else LoadSignal(transport_backlog=5)
            controller.tick(float(i), signal)
        assert controller.level == 1
        assert controller.deescalations == 0

    def test_square_wave_load_does_not_flap(self):
        # Alternating hot/calm ticks: escalation may climb (hot ticks are
        # real pressure) but recovery needs recover_ticks *consecutive*
        # calm ticks, so the knobs never oscillate down and back up.
        controller, knobs = make_controller(
            max_level=3, cooldown_ticks=1, recover_ticks=4
        )
        for i in range(100):
            controller.tick(float(i), HOT if i % 2 == 0 else CALM)
        assert controller.deescalations == 0
        # Actuation budget: one initial apply + at most one per rung.
        detection_calls = [c for c in knobs.calls if c[0] == "detection"]
        assert len(detection_calls) <= 1 + controller.config.max_level

    def test_calm_deescalates_one_rung_per_recovery_window(self):
        controller, _ = make_controller(cooldown_ticks=1, recover_ticks=3)
        drive(controller, HOT, 3)
        assert controller.level == 3
        levels = []
        for i in range(12):
            controller.tick(float(i), CALM)
            levels.append(controller.level)
        assert levels == [3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0]
        assert controller.deescalations == 3
        assert controller.mode is ControlMode.LATENCY

    def test_recovery_releases_shed_before_shrinking_windows(self):
        controller, knobs = make_controller(
            slo_p99=1.0, cooldown_ticks=1, recover_ticks=2
        )
        breach = LoadSignal(transport_backlog=100, recent_p99=5.0)
        drive(controller, breach, 10)
        assert controller.shedding
        marker = len(knobs.calls)
        drive(controller, CALM, 20)
        assert not controller.shedding
        assert controller.level == 0
        recovery = knobs.calls[marker:]
        # The first recovery actuation is the shed release; window
        # shrinks only follow it (mirror of the escalation order).
        assert recovery[0] == ("shed", False)
        assert ("shed", True) not in recovery

    def test_shed_holds_while_breach_persists(self):
        controller, _ = make_controller(slo_p99=1.0, recover_ticks=2)
        breach = LoadSignal(transport_backlog=100, recent_p99=5.0)
        drive(controller, breach, 10)
        assert controller.shedding
        # Pressure drained but p99 still over SLO: hold the shed posture.
        drive(controller, LoadSignal(transport_backlog=0, recent_p99=5.0), 10)
        assert controller.shedding
        assert controller.mode is ControlMode.SHED

    def test_counters_and_gauges_published(self):
        knobs = RecorderKnobs()
        registry = MetricsRegistry()
        controller = AdaptiveController(
            knobs,
            config=ControllerConfig(
                backlog_high=10, backlog_low=2, cooldown_ticks=1
            ),
            registry=registry,
        )
        controller.tick(0.0, HOT)
        snap = registry.snapshot()
        assert snap["controller_ticks"] == 1
        assert snap["controller_escalations"] == 1
        assert snap["controller_level"] == 1.0
        assert snap["controller_mode"] == 1.0  # THROUGHPUT
        assert snap["controller_pressure"] == 100.0
        assert snap["controller_recent_p99"] == -1.0  # None sentinel
        assert snap["controller_batch_size"] > 1.0

    def test_describe_summarizes_posture(self):
        controller, _ = make_controller()
        drive(controller, HOT, 2)
        text = controller.describe()
        assert "mode=throughput" in text
        assert "escalations=2" in text


@pytest.fixture(scope="module")
def equivalence_workload():
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=600, mean_followings=10.0, seed=23)
    )
    events = generate_event_stream(
        StreamConfig(num_users=600, duration=80.0, background_rate=3.0, seed=23)
    )
    return snapshot, events


class TestAdaptiveEquivalence:
    """An idle controller must be invisible: same notifications as static.

    When the pressure never reaches ``backlog_high`` and no SLO is set,
    the controller holds its level-0 floor posture for the whole run —
    which is exactly the static topology's per-event configuration — so
    the delivered multiset must match bit for bit, on every transport.
    """

    def run_topology(self, snapshot, events, transport, adaptive):
        cluster = Cluster.build(
            snapshot,
            PARAMS,
            ClusterConfig(num_partitions=2, transport=transport),
        )
        try:
            hops = {
                name: FixedDelay(0.5) for name in ("firehose", "fanout", "push")
            }
            controller = None
            if adaptive:
                controller = ControllerConfig(
                    backlog_high=10**9, backlog_low=10**8, slo_p99=None
                )
            topology = StreamingTopology(
                cluster,
                delivery=DeliveryPipeline(filters=[]),
                hop_models=hops,
                config=TopologyConfig(controller=controller),
            )
            report = topology.run(list(events))
            controller = topology.controller
            return report, controller
        finally:
            cluster.close()

    @pytest.mark.parametrize("transport", ["inprocess", "shm"])
    def test_idle_adaptive_matches_static_multiset(
        self, equivalence_workload, transport
    ):
        snapshot, events = equivalence_workload

        def multiset(report):
            return sorted(
                (
                    n.recommendation.created_at,
                    n.recipient,
                    n.recommendation.candidate,
                )
                for n in report.notifications
            )

        static, _ = self.run_topology(snapshot, events, transport, adaptive=False)
        adaptive, controller = self.run_topology(
            snapshot, events, transport, adaptive=True
        )
        assert controller is not None
        assert controller.escalations == 0
        assert controller.mode is ControlMode.LATENCY
        assert static.events_ingested == adaptive.events_ingested
        assert multiset(static) == multiset(adaptive)


class TestServingReadsInvisibleToControlPlane:
    """Point-query load must not perturb the push pipeline or controller.

    ``LoadSignal.pressure`` documents that serving reads are invisible by
    construction (no queue, no transport round-trip, no buffering); this
    pins it end to end: the same stream run with and without a live
    query load must produce identical notifications, identical cluster
    round-trips, and an identical controller posture history.
    """

    def run_topology(self, snapshot, events, query_qps):
        from repro.serving import ServingCache

        cluster = Cluster.build(
            snapshot, PARAMS, ClusterConfig(num_partitions=2)
        )
        try:
            serving = None
            if query_qps is not None:
                serving = ServingCache(k=2)
            topology = StreamingTopology(
                cluster,
                delivery=DeliveryPipeline(filters=[]),
                hop_models={
                    name: FixedDelay(0.5)
                    for name in ("firehose", "fanout", "push")
                },
                serving=serving,
                query_users=snapshot.num_users if query_qps else None,
                config=TopologyConfig(
                    controller=ControllerConfig(
                        backlog_high=10**9, backlog_low=10**8, slo_p99=None
                    ),
                    query_qps=query_qps,
                ),
            )
            report = topology.run(list(events))
            return report, topology
        finally:
            cluster.close()

    def test_query_load_changes_nothing_in_the_push_path(
        self, equivalence_workload
    ):
        snapshot, events = equivalence_workload

        def multiset(report):
            return sorted(
                (
                    n.recommendation.created_at,
                    n.recipient,
                    n.recommendation.candidate,
                )
                for n in report.notifications
            )

        quiet, quiet_top = self.run_topology(snapshot, events, query_qps=None)
        queried, queried_top = self.run_topology(snapshot, events, query_qps=64.0)

        load = queried_top.query_load
        assert load is not None and load.queries_issued > 0
        assert queried_top.serving.users_cached > 0
        # The read side really ran — and the push side never noticed.
        assert multiset(quiet) == multiset(queried)
        assert quiet.events_ingested == queried.events_ingested
        assert (
            quiet_top.consumer.cluster_calls
            == queried_top.consumer.cluster_calls
        )
        assert (
            quiet_top.controller.escalations
            == queried_top.controller.escalations
        )
        assert quiet_top.controller.level == queried_top.controller.level
