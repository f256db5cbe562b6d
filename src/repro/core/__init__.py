"""The paper's primary contribution: online diamond-motif detection.

Given the static follower index **S** and the dynamic recent-edge index
**D**, :class:`~repro.core.diamond.DiamondDetector` reacts to each live
``B -> C`` edge by completing the "diamond" motif: find the other fresh B's
pointing at C (top half), then intersect their follower lists (bottom half)
to obtain the A's who should be told about C.

:class:`~repro.core.engine.MotifEngine` wires S + D + one or more detectors
into a single-machine serving unit; the distributed version lives in
:mod:`repro.cluster`.
"""

from repro.core.events import ActionType, EdgeEvent
from repro.core.batch import EventBatch, iter_event_batches
from repro.core.params import DetectionParams
from repro.core.recommendation import (
    EMPTY_RECOMMENDATION_BATCH,
    CandidateColumns,
    Recommendation,
    RecommendationBatch,
    RecommendationGroup,
)
from repro.core.detector import OnlineDetector
from repro.core.diamond import DiamondDetector
from repro.core.engine import EngineStats, MotifEngine

__all__ = [
    "ActionType",
    "EdgeEvent",
    "EventBatch",
    "iter_event_batches",
    "DetectionParams",
    "CandidateColumns",
    "Recommendation",
    "RecommendationBatch",
    "RecommendationGroup",
    "EMPTY_RECOMMENDATION_BATCH",
    "OnlineDetector",
    "DiamondDetector",
    "EngineStats",
    "MotifEngine",
]
