"""Declarative motif specifications: patterns over the dynamic graph.

A :class:`MotifSpec` is a small pattern graph.  Vertices are variables;
edges are either **static** (must exist in the offline follow snapshot, S)
or **dynamic** (created live within a freshness window, D).  A *count
threshold* demands at least ``k`` distinct bindings of one variable, an
*emit clause* names who is notified about what, and *forbid* constraints
express NOT EXISTS conditions (e.g. "the recipient does not already follow
the candidate").

The paper's diamond, in this language::

    vertices: a, b, c
    edges:    a -[static]-> b
              b -[dynamic, within tau]-> c
    count:    b >= k
    emit:     notify a about c
    forbid:   a -[static]-> c

The planner (:mod:`repro.motif.planner`) accepts the fragment of this
language the (S, D) infrastructure can execute incrementally and rejects
anything else with :class:`UnsupportedMotifError` — precise errors being
half the value of a declarative layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.events import ActionType
from repro.util.validation import require, require_positive


class UnsupportedMotifError(ValueError):
    """The spec is valid but outside the executable fragment."""


class EdgeKind(enum.Enum):
    """How a pattern edge is matched."""

    STATIC = "static"    #: must exist in the offline snapshot (S)
    DYNAMIC = "dynamic"  #: created live within the freshness window (D)


@dataclass(frozen=True, slots=True)
class PatternEdge:
    """One edge of the pattern graph.

    Attributes:
        src: source variable name.
        dst: destination variable name.
        kind: static (S) or dynamic (D) matching.
        within: freshness window in seconds; required for dynamic edges,
            forbidden for static ones.
        action: restrict dynamic edges to one action type (follow /
            retweet / favorite); ``None`` accepts any.
    """

    src: str
    dst: str
    kind: EdgeKind = EdgeKind.STATIC
    within: float | None = None
    action: ActionType | None = None

    def __post_init__(self) -> None:
        require(self.src != self.dst, f"self-loop pattern edge on {self.src!r}")
        if self.kind is EdgeKind.DYNAMIC:
            if self.within is None:
                raise ValueError(f"dynamic edge {self} needs a `within` window")
            require_positive(self.within, "within")
        else:
            require(
                self.within is None,
                f"static edge {self.src}->{self.dst} cannot carry `within`",
            )
            require(
                self.action is None,
                f"static edge {self.src}->{self.dst} cannot carry `action`",
            )

    def describe(self) -> str:
        """Human-readable form for ``repro explain``."""
        if self.kind is EdgeKind.DYNAMIC:
            action = f", action={self.action.value}" if self.action else ""
            return f"{self.src} -[dynamic, within {self.within:g}s{action}]-> {self.dst}"
        return f"{self.src} -[static]-> {self.dst}"


@dataclass(frozen=True)
class MotifSpec:
    """A complete declarative motif.

    Attributes:
        name: identifier carried into recommendation provenance.
        vertices: all variable names used by the pattern.
        edges: the pattern edges that must exist.
        count_at_least: variable -> minimum number of distinct bindings.
        emit: ``(recipient_var, candidate_var)`` — who is told about what.
        forbid: NOT-EXISTS pattern edges (static only).
        distinct_emit: require recipient != candidate bindings.
        exclude_witnesses: never notify the fresh witnesses themselves
            (their live edge proves they already saw the candidate).
    """

    name: str
    vertices: tuple[str, ...]
    edges: tuple[PatternEdge, ...]
    count_at_least: dict[str, int] = field(default_factory=dict)
    emit: tuple[str, str] = ("a", "c")
    forbid: tuple[PatternEdge, ...] = ()
    distinct_emit: bool = True
    exclude_witnesses: bool = True

    def __post_init__(self) -> None:
        require(bool(self.name), "motif needs a name")
        require(len(self.vertices) >= 2, "motif needs at least two vertices")
        require(len(self.edges) >= 1, "motif needs at least one edge")
        known = set(self.vertices)
        require(
            len(known) == len(self.vertices),
            f"duplicate vertex names in {self.vertices}",
        )
        for edge in self.edges + self.forbid:
            for endpoint in (edge.src, edge.dst):
                require(
                    endpoint in known,
                    f"edge endpoint {endpoint!r} is not a declared vertex",
                )
        for var, k in self.count_at_least.items():
            require(var in known, f"count constraint on unknown vertex {var!r}")
            require(k >= 1, f"count threshold must be >= 1, got {k} for {var!r}")
        recipient, candidate = self.emit
        require(recipient in known, f"emit recipient {recipient!r} undeclared")
        require(candidate in known, f"emit candidate {candidate!r} undeclared")
        for edge in self.forbid:
            require(
                edge.kind is EdgeKind.STATIC,
                "forbid constraints support static edges only",
            )

    # ------------------------------------------------------------------
    # Introspection used by the planner
    # ------------------------------------------------------------------

    def dynamic_edges(self) -> list[PatternEdge]:
        """The pattern's dynamic (live-matched) edges."""
        return [e for e in self.edges if e.kind is EdgeKind.DYNAMIC]

    def static_edges(self) -> list[PatternEdge]:
        """The pattern's static (snapshot-matched) edges."""
        return [e for e in self.edges if e.kind is EdgeKind.STATIC]

    def describe(self) -> str:
        """Multi-line human-readable rendering of the whole spec."""
        lines = [f"motif {self.name}:"]
        lines += [f"  match  {edge.describe()}" for edge in self.edges]
        lines += [
            f"  count  distinct {var} >= {k}"
            for var, k in self.count_at_least.items()
        ]
        lines += [f"  forbid {edge.describe()}" for edge in self.forbid]
        recipient, candidate = self.emit
        lines.append(f"  emit   notify {recipient} about {candidate}")
        return "\n".join(lines)
