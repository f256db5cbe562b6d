"""Operational tooling: metrics, health monitoring, admission control.

A production recommendation service is mostly operations: knowing each
partition's lag and memory, shedding load when a burst outruns capacity,
and rolling new S snapshots without downtime.  The paper alludes to all
three ("network pressure and memory pressure", periodic offline loads);
this package provides the machinery:

* :mod:`~repro.ops.metrics` — a minimal metrics registry (counters,
  gauges, latency histograms) every component can publish into;
* :mod:`~repro.ops.monitor` — fleet health snapshots over a cluster
  (per-replica event counts, D sizes, channel failures, staleness);
* :mod:`~repro.ops.admission` — token-bucket admission control with
  shed-or-sample policies for ingest overload;
* :mod:`~repro.ops.controller` — the adaptive control plane closing the
  backlog loop over the micro-batching knobs and the shed posture.
"""

from repro.ops.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry
from repro.ops.monitor import ClusterMonitor, PartitionHealth
from repro.ops.admission import AdmissionController, AdmissionPolicy, TokenBucket
from repro.ops.controller import (
    AdaptiveController,
    ControlMode,
    ControllerConfig,
    LoadSignal,
)

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "ClusterMonitor",
    "PartitionHealth",
    "AdmissionController",
    "AdmissionPolicy",
    "TokenBucket",
    "AdaptiveController",
    "ControlMode",
    "ControllerConfig",
    "LoadSignal",
]
