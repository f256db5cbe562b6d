"""Named prebuilt motifs: the recommendation programs of the conclusion.

"beyond the 'diamond' motif there may exist others that are useful for
generating recommendations — these may be implemented as additional
programs that use the graph infrastructure."  Each factory below returns a
:class:`~repro.motif.spec.MotifSpec`; all compile onto the diamond kernel
(:func:`~repro.motif.planner.compile_motif`), so a co-hosted motif costs
one more k-overlap over the same S and D.
"""

from __future__ import annotations

from typing import Callable

from repro.core.diamond import DiamondDetector
from repro.core.events import ActionType
from repro.core.params import PRODUCTION_K
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.static_index import StaticFollowerIndex
from repro.motif.planner import compile_motif
from repro.motif.spec import EdgeKind, MotifSpec, PatternEdge


def diamond_spec(k: int = PRODUCTION_K, tau: float = 3600.0) -> MotifSpec:
    """The paper's diamond: >= k followings followed the same account."""
    return MotifSpec(
        name="diamond",
        vertices=("a", "b", "c"),
        edges=(
            PatternEdge("a", "b", EdgeKind.STATIC),
            PatternEdge("b", "c", EdgeKind.DYNAMIC, within=tau, action=ActionType.FOLLOW),
        ),
        count_at_least={"b": k},
        emit=("a", "c"),
        forbid=(PatternEdge("a", "c", EdgeKind.STATIC),),
    )


def wedge_spec(tau: float = 900.0) -> MotifSpec:
    """The k=1 degenerate diamond: *any* following followed someone new.

    Far noisier than the diamond (no corroboration), included as the
    natural baseline program and for parameter-sweep benchmarks.
    """
    return MotifSpec(
        name="wedge",
        vertices=("a", "b", "c"),
        edges=(
            PatternEdge("a", "b", EdgeKind.STATIC),
            PatternEdge("b", "c", EdgeKind.DYNAMIC, within=tau, action=ActionType.FOLLOW),
        ),
        count_at_least={"b": 1},
        emit=("a", "c"),
        forbid=(PatternEdge("a", "c", EdgeKind.STATIC),),
    )


def co_retweet_spec(k: int = PRODUCTION_K, tau: float = 1800.0) -> MotifSpec:
    """Content recommendation: >= k followings retweeted the same tweet."""
    return MotifSpec(
        name="co-retweet",
        vertices=("a", "b", "t"),
        edges=(
            PatternEdge("a", "b", EdgeKind.STATIC),
            PatternEdge("b", "t", EdgeKind.DYNAMIC, within=tau, action=ActionType.RETWEET),
        ),
        count_at_least={"b": k},
        emit=("a", "t"),
        # No forbid edge: "already follows the tweet" is meaningless; the
        # delivery funnel's dedup covers repeats.
        forbid=(),
        distinct_emit=True,
    )


def favorite_burst_spec(k: int = 2, tau: float = 600.0) -> MotifSpec:
    """Fast-twitch content signal: >= k followings favorited one tweet."""
    return MotifSpec(
        name="favorite-burst",
        vertices=("a", "b", "t"),
        edges=(
            PatternEdge("a", "b", EdgeKind.STATIC),
            PatternEdge("b", "t", EdgeKind.DYNAMIC, within=tau, action=ActionType.FAVORITE),
        ),
        count_at_least={"b": k},
        emit=("a", "t"),
    )


#: Registry of named motif factories.
MOTIF_CATALOG: dict[str, Callable[..., MotifSpec]] = {
    "diamond": diamond_spec,
    "wedge": wedge_spec,
    "co-retweet": co_retweet_spec,
    "favorite-burst": favorite_burst_spec,
}


def build_detector(
    name: str,
    static_index: StaticFollowerIndex,
    dynamic_index: DynamicEdgeIndex,
    inserts_edges: bool = True,
    **spec_kwargs: object,
) -> DiamondDetector:
    """Instantiate a catalog motif as a ready detector.

    Args:
        name: a key of :data:`MOTIF_CATALOG`.
        static_index, dynamic_index: the serving infrastructure.
        inserts_edges: see :class:`~repro.core.diamond.DiamondDetector`.
        **spec_kwargs: forwarded to the spec factory (``k``, ``tau``).
    """
    if name not in MOTIF_CATALOG:
        raise KeyError(
            f"unknown motif {name!r}; catalog has {sorted(MOTIF_CATALOG)}"
        )
    spec = MOTIF_CATALOG[name](**spec_kwargs)
    return compile_motif(spec, static_index, dynamic_index, inserts_edges)
