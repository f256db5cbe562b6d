"""The declarative motif engine the paper's conclusion envisions.

"we envision the development of a generalized framework where one can
declaratively specify a motif, which would yield an optimized query plan
against an online graph database.  This would seem to represent an entirely
new class of data management systems."

This package is that framework, scoped to the pattern fragment the
partitioned (S, D) infrastructure can serve:

* :mod:`~repro.motif.spec` — motifs as pattern graphs: vertex variables,
  static/dynamic pattern edges, count thresholds, NOT-EXISTS constraints,
  and an emit clause;
* :mod:`~repro.motif.planner` — compiles a spec onto the batched diamond
  kernel (a configured :class:`~repro.core.diamond.DiamondDetector`: count,
  window, action filter, exclusions, name), rejecting patterns outside the
  supported fragment with a precise error;
* :mod:`~repro.motif.parser` — the ``.motif`` text form of a spec;
* :mod:`~repro.motif.catalog` — named prebuilt motifs (diamond, wedge,
  co-retweet, favorite-burst).

There is no second executor: a compiled motif is the same program the
engine, the partitions and every transport already run, so co-hosted
motifs share one D, one insert and one batch scan per ``(tau, k, action)``.
"""

from repro.motif.spec import (
    EdgeKind,
    MotifSpec,
    PatternEdge,
    UnsupportedMotifError,
)
from repro.motif.planner import compile_motif
from repro.motif.parser import MotifParseError, parse_motif
from repro.motif.catalog import (
    MOTIF_CATALOG,
    build_detector,
    co_retweet_spec,
    diamond_spec,
    favorite_burst_spec,
    wedge_spec,
)

__all__ = [
    "EdgeKind",
    "MotifSpec",
    "PatternEdge",
    "UnsupportedMotifError",
    "compile_motif",
    "MotifParseError",
    "parse_motif",
    "MOTIF_CATALOG",
    "build_detector",
    "diamond_spec",
    "wedge_spec",
    "co_retweet_spec",
    "favorite_burst_spec",
]
