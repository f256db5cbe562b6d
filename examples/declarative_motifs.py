#!/usr/bin/env python3
"""The generalized framework of the paper's conclusion, demonstrated.

"we envision the development of a generalized framework where one can
declaratively specify a motif, which would yield an optimized query plan
against an online graph database."

This example (1) writes a motif as a declarative pattern graph, (2) shows
the kernel it compiles to — the batched diamond detector, configured by
the spec — (3) runs three catalog motifs side by side on one shared
infrastructure, and (4) shows the planner *refusing* a motif outside the
executable fragment with a useful error.

Run:  python examples/declarative_motifs.py
"""

from repro.core import EdgeEvent, MotifEngine
from repro.core.events import ActionType
from repro.gen import TwitterGraphConfig, generate_follow_graph
from repro.graph import DynamicEdgeIndex, build_follower_snapshot
from repro.motif import (
    EdgeKind,
    MotifSpec,
    PatternEdge,
    UnsupportedMotifError,
    compile_motif,
)
from repro.motif.catalog import MOTIF_CATALOG


def main() -> None:
    # 1. A motif as data: the paper's diamond, written out longhand.
    diamond = MotifSpec(
        name="diamond",
        vertices=("a", "b", "c"),
        edges=(
            PatternEdge("a", "b", EdgeKind.STATIC),
            PatternEdge("b", "c", EdgeKind.DYNAMIC, within=3600.0,
                        action=ActionType.FOLLOW),
        ),
        count_at_least={"b": 3},
        emit=("a", "c"),
        forbid=(PatternEdge("a", "c", EdgeKind.STATIC),),
    )
    print("== the declarative spec ==")
    print(diamond.describe())

    # 2. Compile it and inspect the kernel stages it configures.
    snapshot = generate_follow_graph(TwitterGraphConfig(num_users=3_000, seed=1))
    static_index = build_follower_snapshot(snapshot)
    dynamic_index = DynamicEdgeIndex(retention=3600.0)
    detector = compile_motif(
        diamond, static_index, dynamic_index, inserts_edges=False
    )
    print("\n== the compiled kernel ==")
    print(detector.explain())

    # 3. Several motif programs sharing one graph infrastructure.
    programs = [
        MOTIF_CATALOG[name]() for name in ("diamond", "wedge", "co-retweet")
    ]
    detectors = [
        compile_motif(spec, static_index, dynamic_index, inserts_edges=False)
        for spec in programs
    ]
    engine = MotifEngine(static_index, dynamic_index, detectors)
    events = [
        EdgeEvent(0.0, 10, 2500),
        EdgeEvent(5.0, 11, 2500),
        EdgeEvent(9.0, 12, 2500),
        EdgeEvent(12.0, 10, 777, ActionType.RETWEET),
        EdgeEvent(13.0, 11, 777, ActionType.RETWEET),
        EdgeEvent(14.0, 12, 777, ActionType.RETWEET),
    ]
    per_motif: dict[str, int] = {}
    for event in events:
        for rec in engine.process(event):
            per_motif[rec.motif] = per_motif.get(rec.motif, 0) + 1
    print("\n== three programs, one infrastructure ==")
    for name, count in sorted(per_motif.items()):
        print(f"  {name:<12} emitted {count} raw candidates")

    # 4. The planner rejects what the infrastructure cannot serve.
    print("\n== a motif outside the fragment ==")
    reverse = MotifSpec(
        name="follow-back-burst",
        vertices=("a", "b", "c"),
        edges=(
            PatternEdge("a", "b", EdgeKind.STATIC),
            PatternEdge("c", "b", EdgeKind.DYNAMIC, within=600.0),
        ),
        count_at_least={"c": 2},
        emit=("a", "b"),
    )
    try:
        compile_motif(reverse)
    except UnsupportedMotifError as error:
        print(f"  planner said no: {error}")
    print("\ndeclarative motifs demo complete. ✓")


if __name__ == "__main__":
    main()
