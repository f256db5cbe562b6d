"""Unit tests for motif specs and the planner's fragment validation."""

import pytest

from repro.core.diamond import DiamondDetector
from repro.core.events import ActionType
from repro.motif.planner import compile_motif
from repro.motif.spec import (
    EdgeKind,
    MotifSpec,
    PatternEdge,
    UnsupportedMotifError,
)
from repro.motif.catalog import co_retweet_spec, diamond_spec, wedge_spec


class TestPatternEdge:
    def test_dynamic_requires_window(self):
        with pytest.raises(ValueError, match="within"):
            PatternEdge("b", "c", EdgeKind.DYNAMIC)

    def test_static_rejects_window_and_action(self):
        with pytest.raises(ValueError):
            PatternEdge("a", "b", EdgeKind.STATIC, within=10.0)
        with pytest.raises(ValueError):
            PatternEdge("a", "b", EdgeKind.STATIC, action=ActionType.FOLLOW)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            PatternEdge("a", "a")

    def test_describe(self):
        edge = PatternEdge("b", "c", EdgeKind.DYNAMIC, within=60.0, action=ActionType.RETWEET)
        assert "dynamic" in edge.describe()
        assert "retweet" in edge.describe()
        assert "static" in PatternEdge("a", "b").describe()


class TestMotifSpecValidation:
    def test_diamond_spec_well_formed(self):
        spec = diamond_spec(k=3, tau=3600.0)
        assert spec.count_at_least == {"b": 3}
        assert len(spec.dynamic_edges()) == 1
        assert len(spec.static_edges()) == 1
        text = spec.describe()
        assert "motif diamond" in text and "notify a about c" in text

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ValueError, match="not a declared vertex"):
            MotifSpec(
                name="bad",
                vertices=("a", "b"),
                edges=(PatternEdge("a", "z"),),
            )

    def test_unknown_count_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            MotifSpec(
                name="bad",
                vertices=("a", "b"),
                edges=(PatternEdge("a", "b"),),
                count_at_least={"z": 2},
            )

    def test_dynamic_forbid_rejected(self):
        with pytest.raises(ValueError, match="static edges only"):
            MotifSpec(
                name="bad",
                vertices=("a", "b", "c"),
                edges=(
                    PatternEdge("a", "b"),
                    PatternEdge("b", "c", EdgeKind.DYNAMIC, within=60.0),
                ),
                count_at_least={"b": 2},
                forbid=(PatternEdge("a", "c", EdgeKind.DYNAMIC, within=60.0),),
            )

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            MotifSpec(
                name="bad",
                vertices=("a", "a"),
                edges=(PatternEdge("a", "c"),),
            )


class TestPlannerFragment:
    def base_spec(self, **overrides):
        fields = dict(
            name="m",
            vertices=("a", "b", "c"),
            edges=(
                PatternEdge("a", "b"),
                PatternEdge("b", "c", EdgeKind.DYNAMIC, within=60.0),
            ),
            count_at_least={"b": 2},
            emit=("a", "c"),
        )
        fields.update(overrides)
        return MotifSpec(**fields)

    def test_diamond_compiles(self):
        explain = compile_motif(diamond_spec()).explain()
        assert "scan D (tau=3600s, action=follow)" in explain
        assert "k-overlap" in explain
        assert "emit (motif=diamond)" in explain

    def test_two_dynamic_edges_rejected(self):
        spec = self.base_spec(
            vertices=("a", "b", "c", "d"),
            edges=(
                PatternEdge("a", "b"),
                PatternEdge("b", "c", EdgeKind.DYNAMIC, within=60.0),
                PatternEdge("b", "d", EdgeKind.DYNAMIC, within=60.0),
            ),
        )
        with pytest.raises(UnsupportedMotifError, match="dynamic edges"):
            compile_motif(spec)

    def test_missing_threshold_rejected(self):
        spec = self.base_spec(count_at_least={})
        with pytest.raises(UnsupportedMotifError, match="count threshold"):
            compile_motif(spec)

    def test_threshold_on_wrong_vertex_rejected(self):
        spec = self.base_spec(count_at_least={"a": 2})
        with pytest.raises(UnsupportedMotifError, match="count threshold"):
            compile_motif(spec)

    def test_emitting_non_target_rejected(self):
        spec = self.base_spec(emit=("a", "b"), count_at_least={"b": 2})
        with pytest.raises(UnsupportedMotifError, match="reverse lookup"):
            compile_motif(spec)

    def test_notifying_witness_rejected(self):
        spec = self.base_spec(emit=("b", "c"))
        with pytest.raises(UnsupportedMotifError, match="broadcast"):
            compile_motif(spec)

    def test_long_static_chain_rejected(self):
        spec = self.base_spec(
            vertices=("a", "x", "b", "c"),
            edges=(
                PatternEdge("a", "x"),
                PatternEdge("x", "b"),
                PatternEdge("b", "c", EdgeKind.DYNAMIC, within=60.0),
            ),
        )
        with pytest.raises(UnsupportedMotifError, match="exactly one static edge"):
            compile_motif(spec)

    def test_unsupported_forbid_rejected(self):
        spec = self.base_spec(forbid=(PatternEdge("b", "a"),))
        with pytest.raises(UnsupportedMotifError, match="forbid"):
            compile_motif(spec)

    def test_cap_below_k_rejected(self):
        with pytest.raises(UnsupportedMotifError, match="never complete"):
            compile_motif(diamond_spec(k=3), max_witnesses=2)

    def test_cap_adds_stage(self):
        detector = compile_motif(diamond_spec(k=2), max_witnesses=10)
        assert detector.params.max_trigger_sources == 10
        assert "cap (expand the newest 10 witnesses)" in detector.explain()


class TestCompiledKernel:
    """A spec compiles onto the diamond kernel field by field."""

    def test_diamond_spec_sets_every_kernel_input(self):
        detector = compile_motif(diamond_spec(k=4, tau=900.0))
        assert isinstance(detector, DiamondDetector)
        params = detector.params
        assert (params.k, params.tau, params.max_trigger_sources) == (4, 900.0, None)
        assert params.exclude_candidate_recipient
        assert params.exclude_existing_followers  # the a->c forbid edge
        assert detector.exclude_witnesses
        assert detector.action is ActionType.FOLLOW
        assert detector.name == "diamond"

    def test_witness_cut_is_split_from_the_s_probe(self):
        detector = compile_motif(co_retweet_spec(k=2, tau=600.0))
        assert not detector.params.exclude_existing_followers  # no forbid
        assert detector.exclude_witnesses
        assert detector.action is ActionType.RETWEET
        explain = detector.explain()
        assert "exclude recipients among the fresh witnesses" in explain
        assert "in S" not in explain.split("k-overlap")[1]

    def test_distinct_emit_and_witness_flags_map_through(self):
        spec = MotifSpec(
            name="loose",
            vertices=("a", "b", "c"),
            edges=(
                PatternEdge("a", "b"),
                PatternEdge("b", "c", EdgeKind.DYNAMIC, within=60.0),
            ),
            count_at_least={"b": 2},
            distinct_emit=False,
            exclude_witnesses=False,
        )
        detector = compile_motif(spec)
        assert not detector.params.exclude_candidate_recipient
        assert not detector.exclude_witnesses
        assert detector.action is None
        assert "exclude" not in detector.explain()

    def test_wedge_compiles_to_k_one(self):
        explain = compile_motif(wedge_spec()).explain()
        assert "threshold (fresh witnesses >= 1)" in explain
        assert "(k=1)" in explain
