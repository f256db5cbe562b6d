"""repro — Real-Time Twitter Recommendation: Online Motif Detection.

A from-scratch reproduction of Gupta et al., "Real-Time Twitter
Recommendation: Online Motif Detection in Large Dynamic Graphs"
(PVLDB 7(13), 2014): the online diamond-motif detection algorithm, the
partitioned/replicated serving architecture, the message-queue and delivery
substrates, the ruled-out baselines, and the declarative motif engine the
paper's conclusion envisions.

Quickstart::

    from repro import DetectionParams, EdgeEvent, MotifEngine
    from repro.gen import TwitterGraphConfig, generate_follow_graph

    snapshot = generate_follow_graph(TwitterGraphConfig(num_users=10_000))
    engine = MotifEngine.from_snapshot(snapshot, DetectionParams(k=2, tau=600))
    recs = engine.process(EdgeEvent(created_at=0.0, actor=42, target=7))

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from repro.core import (
    ActionType,
    DetectionParams,
    DiamondDetector,
    EdgeEvent,
    EngineStats,
    MotifEngine,
    OnlineDetector,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.graph import (
    CsrGraph,
    DynamicEdgeIndex,
    GraphSnapshot,
    StaticFollowerIndex,
    build_follower_snapshot,
)

__version__ = "1.0.0"

__all__ = [
    "ActionType",
    "DetectionParams",
    "DiamondDetector",
    "EdgeEvent",
    "EngineStats",
    "MotifEngine",
    "OnlineDetector",
    "Recommendation",
    "RecommendationBatch",
    "RecommendationGroup",
    "CsrGraph",
    "DynamicEdgeIndex",
    "GraphSnapshot",
    "StaticFollowerIndex",
    "build_follower_snapshot",
    "__version__",
]
