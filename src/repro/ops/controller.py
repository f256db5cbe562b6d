"""The adaptive control plane: one loop instead of three static knobs.

The paper's system survives a Twitter firehose by *adapting its posture to
load*; until this module, the reproduction ran on three static knobs —
detection ``batch_size``/``max_wait``, the delivery coalescing window, and
the admission shed posture — while the
end-to-end bench showed ``queue_share: 0.999``: virtually all p99 is
queueing, exactly the thing a controller can trade against throughput.

The loop is **signal → decision → actuation**:

* **Signal** — a :class:`LoadSignal` sampled every ``interval`` (virtual)
  seconds: the transport's real request backlog (``transport.backlog()``,
  the queue depth the partition fleet actually failed to drain), events in
  flight in the upstream queue stages, buffered micro-batch events, and
  the p99 of end-to-end latencies observed since the last tick.
* **Decision** — a discrete posture *level* on a monotone ladder with
  hysteresis: pressure at/above ``backlog_high`` escalates one level per
  ``cooldown_ticks``; pressure at/below ``backlog_low`` for
  ``recover_ticks`` consecutive ticks de-escalates one level.  Pressure in
  the band between the watermarks holds the current posture — the gap is
  what prevents knob flapping under oscillating load.
* **Actuation** — each level maps to a geometric point between the
  latency-mode floor knobs and the throughput-mode ceiling knobs for both
  micro-batching windows.  Shedding is the *last* rung: it engages only
  when the ladder is already saturated **and** the observed p99 breaches
  the configured SLO, and it releases *first* on recovery (the mirror of
  the escalation order).  Every actuation is published as a gauge so the
  posture history is observable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.ops.metrics import MetricsRegistry
from repro.util.validation import require, require_non_negative, require_positive

__all__ = [
    "ControlMode",
    "LoadSignal",
    "ControllerConfig",
    "AdaptiveController",
]


class ControlMode(enum.Enum):
    """The controller's externally visible posture."""

    #: Floor knobs: smallest batches and windows, lowest added latency.
    LATENCY = "latency"
    #: Escalated knobs: batches and windows grown toward the ceiling.
    THROUGHPUT = "throughput"
    #: The ladder is saturated and the SLO is breached: admission sheds.
    SHED = "shed"


@dataclass(frozen=True)
class LoadSignal:
    """One tick's view of the pipeline's load.

    Attributes:
        transport_backlog: submitted-but-undrained requests on the
            partition transport — the real queue depth the fleet failed
            to keep up with (0 on synchronous transports).
        queued_events: events in flight in the upstream queue stages
            (published but not yet delivered to the consumer).
        pending_events: events buffered in the detection consumer awaiting
            a micro-batch flush.
        pending_candidates: raw candidates buffered in the delivery
            coalescer awaiting a funnel dispatch.
        recent_p99: p99 of end-to-end latencies observed since the last
            tick, or ``None`` when nothing was delivered in the window
            (``None`` never counts as an SLO breach — a silent pipeline
            is recovering, not failing).
    """

    transport_backlog: int = 0
    queued_events: int = 0
    pending_events: int = 0
    pending_candidates: int = 0
    recent_p99: float | None = None

    @property
    def pressure(self) -> int:
        """Upstream load the pipeline has not absorbed — the escalation
        signal.

        Deliberately excludes ``pending_events``/``pending_candidates``:
        those buffers are the controller's *own* batching at work, and
        counting them would hold measured pressure above the calm
        watermark exactly while a post-burst partial batch waits out its
        flush timer — deadlocking the de-escalation that would release
        it.  Self-inflicted buffering is observability, not pressure.

        Serving-tier read traffic is likewise invisible here *by
        construction*: point queries read the serving cache lock-free
        (no queue, no transport round-trip, no consumer buffering), so
        none of these inputs can move when query load is added — the
        write path's control loop must not react to the read path.
        ``tests/test_controller.py`` pins that equivalence end to end.
        """
        return self.transport_backlog + self.queued_events


@dataclass(frozen=True)
class ControllerConfig:
    """Watermarks, knob bounds, and damping for the control loop.

    The defaults are sized for the simulated production topology (hop
    medians of ~2.2 virtual seconds): at a background rate of a few
    events/second roughly ``rate x hop_median`` events sit in flight per
    queue stage, so ``backlog_low`` floats above the idle baseline and
    ``backlog_high`` marks a genuine burst.
    """

    #: Virtual seconds between controller ticks.
    interval: float = 0.5
    #: Pressure at/above which the controller escalates one level.
    backlog_high: int = 48
    #: Pressure at/below which calm ticks accumulate toward de-escalation.
    backlog_low: int = 12
    #: Rungs on the escalation ladder (level 0 = floor knobs).
    max_level: int = 4
    #: Detection micro-batch size at level 0 / at ``max_level``.
    batch_floor: int = 1
    batch_ceiling: int = 256
    #: Detection flush deadline (virtual seconds) at level 0 / max level.
    wait_floor: float = 0.02
    wait_ceiling: float = 2.0
    #: Delivery coalescing thresholds at level 0 / at ``max_level``.
    delivery_batch_floor: int = 1
    delivery_batch_ceiling: int = 512
    delivery_wait_floor: float = 0.02
    delivery_wait_ceiling: float = 2.0
    #: End-to-end p99 SLO (virtual seconds) past which a saturated ladder
    #: escalates to shedding; ``None`` disables the shed rung entirely.
    slo_p99: float | None = None
    #: Minimum ticks between consecutive escalations.
    cooldown_ticks: int = 2
    #: Consecutive calm ticks required per de-escalation step.
    recover_ticks: int = 4

    def __post_init__(self) -> None:
        require_positive(self.interval, "interval")
        require_positive(self.backlog_high, "backlog_high")
        require_non_negative(self.backlog_low, "backlog_low")
        require(
            self.backlog_low < self.backlog_high,
            "backlog_low must sit strictly below backlog_high "
            f"(hysteresis band), got {self.backlog_low} >= {self.backlog_high}",
        )
        require_positive(self.max_level, "max_level")
        require_positive(self.batch_floor, "batch_floor")
        require(
            self.batch_ceiling >= self.batch_floor,
            "batch_ceiling must be >= batch_floor",
        )
        require_positive(self.wait_floor, "wait_floor")
        require(
            self.wait_ceiling >= self.wait_floor,
            "wait_ceiling must be >= wait_floor",
        )
        require_positive(self.delivery_batch_floor, "delivery_batch_floor")
        require(
            self.delivery_batch_ceiling >= self.delivery_batch_floor,
            "delivery_batch_ceiling must be >= delivery_batch_floor",
        )
        require_positive(self.delivery_wait_floor, "delivery_wait_floor")
        require(
            self.delivery_wait_ceiling >= self.delivery_wait_floor,
            "delivery_wait_ceiling must be >= delivery_wait_floor",
        )
        if self.slo_p99 is not None:
            require_positive(self.slo_p99, "slo_p99")
        require_positive(self.cooldown_ticks, "cooldown_ticks")
        require_positive(self.recover_ticks, "recover_ticks")

    def knobs_at(self, level: int) -> tuple[int, float, int, float]:
        """The knob tuple for one ladder rung.

        Returns ``(batch_size, max_wait, delivery_batch_size,
        delivery_max_wait)`` interpolated *geometrically* between floor
        and ceiling — each escalation multiplies the windows by a
        constant factor, so the ladder covers orders of magnitude in
        ``max_level`` steps without tiny early rungs or giant late ones.
        """
        require(
            0 <= level <= self.max_level,
            f"level must be in [0, {self.max_level}], got {level}",
        )
        fraction = level / self.max_level

        def geometric(floor: float, ceiling: float) -> float:
            if floor == ceiling:
                return floor
            return floor * (ceiling / floor) ** fraction

        return (
            round(geometric(self.batch_floor, self.batch_ceiling)),
            geometric(self.wait_floor, self.wait_ceiling),
            round(
                geometric(self.delivery_batch_floor, self.delivery_batch_ceiling)
            ),
            geometric(self.delivery_wait_floor, self.delivery_wait_ceiling),
        )


class AdaptiveController:
    """Closes the loop from the backlog signal to the pipeline's knobs.

    ``knobs`` is any object exposing the three actuation methods (the
    topology provides the real adapter; tests pass a recorder)::

        knobs.set_detection_knobs(batch_size, max_wait)
        knobs.set_delivery_knobs(batch_size, max_wait)
        knobs.set_shedding(active)

    The controller applies its level-0 (latency-mode) knobs at
    construction so the pipeline always starts from a known posture.
    """

    def __init__(
        self,
        knobs,
        config: ControllerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ControllerConfig()
        self.knobs = knobs
        self.registry = registry or MetricsRegistry()
        self.level = 0
        self.shedding = False
        self.ticks = 0
        self._calm_ticks = 0
        self._cooldown = 0
        self._apply_level()
        self.knobs.set_shedding(False)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    @property
    def mode(self) -> ControlMode:
        """Current posture (derived, never stored separately)."""
        if self.shedding:
            return ControlMode.SHED
        if self.level > 0:
            return ControlMode.THROUGHPUT
        return ControlMode.LATENCY

    @property
    def escalations(self) -> int:
        """Lifetime count of one-rung escalations."""
        return self.registry.counter("controller_escalations").value

    @property
    def deescalations(self) -> int:
        """Lifetime count of one-rung de-escalations."""
        return self.registry.counter("controller_deescalations").value

    @property
    def shed_engagements(self) -> int:
        """Times the shed rung engaged (SLO breach on a saturated ladder)."""
        return self.registry.counter("controller_shed_engaged").value

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def tick(self, now: float, signal: LoadSignal) -> ControlMode:
        """One control decision; returns the (possibly new) posture.

        ``now`` is informational (gauge timestamping); all damping is
        counted in ticks so the loop behaves identically at any interval.
        """
        config = self.config
        self.ticks += 1
        self.registry.counter("controller_ticks").increment()
        if self._cooldown > 0:
            self._cooldown -= 1

        pressure = signal.pressure
        breached = (
            config.slo_p99 is not None
            and signal.recent_p99 is not None
            and signal.recent_p99 > config.slo_p99
        )
        hot = pressure >= config.backlog_high
        calm = pressure <= config.backlog_low

        self.registry.gauge("controller_pressure").set(float(pressure))
        self.registry.gauge("controller_recent_p99").set(
            -1.0 if signal.recent_p99 is None else signal.recent_p99
        )

        if hot or breached:
            self._calm_ticks = 0
            if self._cooldown == 0:
                if self.level < config.max_level:
                    # Monotone escalation: grow the windows first; the
                    # shed rung is unreachable until the ladder saturates.
                    self.level += 1
                    self._apply_level()
                    self.registry.counter("controller_escalations").increment()
                    self._cooldown = config.cooldown_ticks
                elif breached and not self.shedding and config.slo_p99 is not None:
                    self.shedding = True
                    self.knobs.set_shedding(True)
                    self.registry.counter("controller_shed_engaged").increment()
                    self._cooldown = config.cooldown_ticks
        elif calm and not breached:
            self._calm_ticks += 1
            if self._calm_ticks >= config.recover_ticks:
                # One recovery step per calm window, releasing in the
                # reverse of the escalation order: shed first, then the
                # windows step back down toward the latency floor.
                self._calm_ticks = 0
                if self.shedding:
                    self.shedding = False
                    self.knobs.set_shedding(False)
                    self.registry.counter("controller_shed_released").increment()
                elif self.level > 0:
                    self.level -= 1
                    self._apply_level()
                    self.registry.counter("controller_deescalations").increment()
        else:
            # The hysteresis band (or a breach during calm pressure that
            # shedding is already handling): hold the posture.
            self._calm_ticks = 0

        self._publish_posture()
        return self.mode

    def _apply_level(self) -> None:
        """Push the current rung's knobs into the pipeline."""
        batch, wait, delivery_batch, delivery_wait = self.config.knobs_at(
            self.level
        )
        self.knobs.set_detection_knobs(batch, wait)
        self.knobs.set_delivery_knobs(delivery_batch, delivery_wait)
        self.registry.gauge("controller_batch_size").set(float(batch))
        self.registry.gauge("controller_max_wait").set(wait)
        self.registry.gauge("controller_delivery_batch_size").set(
            float(delivery_batch)
        )
        self.registry.gauge("controller_delivery_max_wait").set(delivery_wait)

    def _publish_posture(self) -> None:
        self.registry.gauge("controller_level").set(float(self.level))
        self.registry.gauge("controller_shedding").set(
            1.0 if self.shedding else 0.0
        )
        mode_code = {
            ControlMode.LATENCY: 0.0,
            ControlMode.THROUGHPUT: 1.0,
            ControlMode.SHED: 2.0,
        }
        self.registry.gauge("controller_mode").set(mode_code[self.mode])

    def describe(self) -> str:
        """One-line posture summary for CLI output and logs."""
        return (
            f"mode={self.mode.value} level={self.level}/{self.config.max_level} "
            f"escalations={self.escalations} deescalations={self.deescalations} "
            f"shed_engagements={self.shed_engagements}"
        )
