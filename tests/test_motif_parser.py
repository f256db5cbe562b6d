"""Tests for the motif text syntax, including describe() round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import ActionType
from repro.motif import MOTIF_CATALOG, MotifParseError, parse_motif
from repro.motif.spec import EdgeKind

DIAMOND_TEXT = """
motif diamond:
  match  a -[static]-> b
  match  b -[dynamic, within 3600s, action=follow]-> c
  count  distinct b >= 3
  forbid a -[static]-> c
  emit   notify a about c
"""


class TestParsing:
    def test_diamond_text(self):
        spec = parse_motif(DIAMOND_TEXT)
        assert spec.name == "diamond"
        assert spec.vertices == ("a", "b", "c")
        assert spec.count_at_least == {"b": 3}
        assert spec.emit == ("a", "c")
        dynamic = spec.dynamic_edges()[0]
        assert dynamic.within == 3600.0
        assert dynamic.action is ActionType.FOLLOW
        assert len(spec.forbid) == 1

    def test_comments_and_blank_lines_ignored(self):
        text = "# the paper's motif\n\n" + DIAMOND_TEXT + "\n# trailing\n"
        assert parse_motif(text).name == "diamond"

    def test_action_optional(self):
        text = """
        motif any-action:
          match a -[static]-> b
          match b -[dynamic, within 60s]-> c
          count distinct b >= 2
          emit  notify a about c
        """
        spec = parse_motif(text)
        assert spec.dynamic_edges()[0].action is None

    def test_fractional_window(self):
        text = """
        motif quick:
          match a -[static]-> b
          match b -[dynamic, within 0.5s]-> c
          count distinct b >= 1
          emit  notify a about c
        """
        assert parse_motif(text).dynamic_edges()[0].within == 0.5

    def test_parsed_spec_compiles_and_runs(self):
        from repro.graph import DynamicEdgeIndex, StaticFollowerIndex
        from repro.motif import compile_motif
        from repro.core import EdgeEvent

        spec = parse_motif(DIAMOND_TEXT)  # k = 3
        follows = [(0, 3), (1, 3), (1, 4), (1, 7), (2, 4)]
        s = StaticFollowerIndex.from_follow_edges(follows)
        d = DynamicEdgeIndex(retention=3600.0)
        detector = compile_motif(spec, s, d)
        detector.on_edge(EdgeEvent(0.0, 3, 6))
        detector.on_edge(EdgeEvent(1.0, 4, 6))
        recs = detector.on_edge(EdgeEvent(2.0, 7, 6))
        assert [r.recipient for r in recs] == [1]


class TestErrors:
    def test_missing_header(self):
        with pytest.raises(MotifParseError, match="header"):
            parse_motif("match a -[static]-> b")

    def test_missing_emit(self):
        with pytest.raises(MotifParseError, match="emit"):
            parse_motif("motif m:\n  match a -[static]-> b")

    def test_bad_edge_syntax_reports_line(self):
        text = "motif m:\n  match a --> b\n  emit notify a about b"
        with pytest.raises(MotifParseError, match="line 2"):
            parse_motif(text)

    def test_unknown_clause(self):
        text = "motif m:\n  require a -[static]-> b\n  emit notify a about b"
        with pytest.raises(MotifParseError, match="unknown clause"):
            parse_motif(text)

    def test_unknown_action_lists_valid_ones(self):
        text = (
            "motif m:\n"
            "  match b -[dynamic, within 60s, action=like]-> c\n"
            "  emit notify b about c"
        )
        with pytest.raises(MotifParseError, match="retweet"):
            parse_motif(text)

    def test_bad_count_syntax(self):
        text = "motif m:\n  count b at least 3\n  emit notify a about b"
        with pytest.raises(MotifParseError, match="count"):
            parse_motif(text)

    def test_semantic_validation_still_applies(self):
        # Parses fine, but the emit recipient is undeclared -> MotifSpec
        # validation rejects it.
        text = "motif m:\n  match a -[static]-> b\n  emit notify z about b"
        with pytest.raises(ValueError, match="undeclared"):
            parse_motif(text)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(MOTIF_CATALOG))
    def test_catalog_specs_roundtrip(self, name):
        spec = MOTIF_CATALOG[name]()
        assert parse_motif(spec.describe()) == spec

    @given(
        k=st.integers(1, 5),
        tau=st.floats(1.0, 10_000.0),
        action=st.sampled_from(list(ActionType)),
    )
    def test_parameterised_diamond_roundtrips(self, k, tau, action):
        from repro.motif.spec import MotifSpec, PatternEdge

        spec = MotifSpec(
            name="prop",
            vertices=("a", "b", "c"),
            edges=(
                PatternEdge("a", "b", EdgeKind.STATIC),
                PatternEdge(
                    "b", "c", EdgeKind.DYNAMIC, within=tau, action=action
                ),
            ),
            count_at_least={"b": k},
            emit=("a", "c"),
        )
        reparsed = parse_motif(spec.describe())
        assert reparsed.count_at_least == spec.count_at_least
        assert reparsed.emit == spec.emit
        got = reparsed.dynamic_edges()[0]
        assert got.action is action
        assert got.within == pytest.approx(tau, rel=1e-5)
