"""The motif compiler: spec -> validated shape -> a configured kernel.

The supported fragment ("threshold star motifs") is exactly what the
partitioned (S, D) infrastructure executes without new data structures:

* exactly **one dynamic edge** ``w -> t`` — the live trigger;
* a **count threshold** on the dynamic edge's *source* variable ``w``
  (the witnesses);
* one **static edge** ``r -> w`` from the emit recipient to the witness;
* emit ``(r, t)`` — notify the recipient about the dynamic target;
* optional forbid edges of the form ``r -> t``.

That is the diamond's shape, so a compiled motif *is* a
:class:`~repro.core.diamond.DiamondDetector`: the count is its ``k``, the
dynamic edge's window its ``tau`` and its action the detector's action
filter, ``distinct_emit`` the recipient != candidate cut, the forbid edge
the S probe, ``exclude_witnesses`` the witness cut, and the spec's name the
candidates' motif.  Every motif therefore runs on the batched kernel and
shares D, its inserts and its batch scans with every other program.

Everything else raises :class:`UnsupportedMotifError` with an explanation
of what would be needed (usually: an additional index).  This mirrors how
a real planner grows — each new shape earns its access path.
"""

from __future__ import annotations

from repro.core.diamond import DiamondDetector
from repro.core.params import DetectionParams
from repro.graph.dynamic_index import DynamicEdgeIndex
from repro.graph.static_index import StaticFollowerIndex
from repro.motif.spec import EdgeKind, MotifSpec, UnsupportedMotifError


def compile_motif(
    spec: MotifSpec,
    static_index: StaticFollowerIndex | None = None,
    dynamic_index: DynamicEdgeIndex | None = None,
    inserts_edges: bool = True,
    max_witnesses: int | None = None,
) -> DiamondDetector:
    """Compile *spec* into a detector over the given indexes.

    Args:
        spec: the declarative motif.
        static_index, dynamic_index: the serving infrastructure; each
            defaults to an empty index (D retaining the motif's window),
            which is enough to validate and explain a spec.
        inserts_edges: see :class:`~repro.core.diamond.DiamondDetector`
            (False when an engine owns the single insert).
        max_witnesses: optional viral-target expansion cap: the audience
            is the k-overlap of the newest ``max_witnesses`` fresh
            witnesses only, while a candidate's ``via`` still lists every
            fresh witness, uncapped (what the per-event ``on_edge`` emits).

    Raises:
        UnsupportedMotifError: if the spec is outside the star fragment.
    """
    witness, target, dynamic_edge = _validate_trigger(spec)
    recipient = _validate_recipient(spec, witness, target)
    k = spec.count_at_least[witness]
    if max_witnesses is not None and max_witnesses < k:
        raise UnsupportedMotifError(
            f"max_witnesses={max_witnesses} below threshold k={k}: "
            "the motif could never complete"
        )
    params = DetectionParams(
        k=k,
        tau=dynamic_edge.within,
        exclude_candidate_recipient=spec.distinct_emit,
        exclude_existing_followers=_has_forbid_recipient_candidate(
            spec, recipient, target
        ),
        max_trigger_sources=max_witnesses,
    )
    if static_index is None:
        static_index = StaticFollowerIndex.from_follow_edges([])
    if dynamic_index is None:
        dynamic_index = DynamicEdgeIndex(retention=params.tau)
    return DiamondDetector(
        static_index,
        dynamic_index,
        params,
        inserts_edges=inserts_edges,
        motif=spec.name,
        action=dynamic_edge.action,
        exclude_witnesses=spec.exclude_witnesses,
    )


# ----------------------------------------------------------------------
# Shape validation
# ----------------------------------------------------------------------

def _validate_trigger(spec: MotifSpec):
    dynamic = spec.dynamic_edges()
    if len(dynamic) != 1:
        raise UnsupportedMotifError(
            f"motif {spec.name!r} has {len(dynamic)} dynamic edges; the "
            "infrastructure triggers on exactly one live edge (multi-trigger "
            "motifs would need a join buffer over D)"
        )
    edge = dynamic[0]
    witness, target = edge.src, edge.dst
    if witness not in spec.count_at_least:
        raise UnsupportedMotifError(
            f"motif {spec.name!r} lacks a count threshold on the dynamic "
            f"edge's source {witness!r}; unthresholded dynamic matches "
            "degenerate to firehose fan-out"
        )
    for var in spec.count_at_least:
        if var != witness:
            raise UnsupportedMotifError(
                f"count threshold on {var!r} unsupported: only the dynamic "
                f"source {witness!r} is counted (counting {var!r} would need "
                "an index keyed by that variable)"
            )
    return witness, target, edge


def _validate_recipient(spec: MotifSpec, witness: str, target: str) -> str:
    recipient, candidate = spec.emit
    if candidate != target:
        raise UnsupportedMotifError(
            f"motif {spec.name!r} emits candidate {candidate!r} but the "
            f"dynamic target is {target!r}; recommending anything except "
            "the live target needs a reverse lookup D lacks"
        )
    if recipient == witness:
        raise UnsupportedMotifError(
            f"motif {spec.name!r} notifies the witnesses themselves; that "
            "is a broadcast, not a motif"
        )
    static = spec.static_edges()
    expected = [e for e in static if e.src == recipient and e.dst == witness]
    if len(expected) != 1 or len(static) != 1:
        raise UnsupportedMotifError(
            f"motif {spec.name!r} must connect the recipient to the "
            f"witness via exactly one static edge {recipient}->{witness} "
            "(S answers exactly that lookup); longer static chains would "
            "need materialised multi-hop indexes"
        )
    return recipient


def _has_forbid_recipient_candidate(
    spec: MotifSpec, recipient: str, target: str
) -> bool:
    for edge in spec.forbid:
        if edge.kind is EdgeKind.STATIC and edge.src == recipient and edge.dst == target:
            continue
        raise UnsupportedMotifError(
            f"forbid constraint {edge.describe()} unsupported: only "
            f"NOT EXISTS {recipient}->{target} is checkable against S"
        )
    return bool(spec.forbid)
