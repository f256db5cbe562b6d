"""Deleted-name gates: what a simplification removed may not grow back.

Each row names a pattern, where it must not match, and why what it
matches was deleted.  Every row also plants a positive — a string
its pattern must match — so a gate whose pattern rotted into matching
nothing fails here instead of passing forever.  Patterns are Python
regular expressions; ``literal`` rows are plain strings.

Directories are searched through their ``*.py`` files; ``exclude``
skips files; ``section`` limits a file to the lines from ``class
<section>`` up to the next top-level class; ``count`` is how many lines
must match (0 for a deleted name, 1 for a definition that must stay
unique).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Gate:
    name: str
    pattern: str
    paths: tuple[str, ...]
    why: str
    planted: str
    count: int = 0
    literal: bool = False
    ignore_case: bool = False
    exclude: tuple[str, ...] = ()
    section: str | None = None

    def regex(self) -> re.Pattern:
        pattern = re.escape(self.pattern) if self.literal else self.pattern
        return re.compile(pattern, re.IGNORECASE if self.ignore_case else 0)


GATES = [
    Gate(
        "knob",
        "serving_mode|serving_tap",
        ("src",),
        "the cache writer lives where the funnel lives; neither the "
        "placement option nor the post-funnel tap may grow back",
        "config.serving_mode",
    ),
    Gate(
        "lane",
        "submit_event|gather_event|EventReply|_offer_inline",
        ("src",),
        "batch_size is a size, not a second dispatch path; the boxed "
        "per-event lane is the in-process oracle, reached by name only",
        "transport.submit_event(event)",
    ),
    Gate(
        "assembly-helpers",
        "_simulate_arg_error|_hop_model_overrides|_delivery_shard_pipeline|"
        "_build_cluster|_build_serving|approx_bytes_of_int_list|"
        "KOVERLAP_NUMPY_CROSSOVER",
        ("src",),
        "simulate, serve and recover build through "
        "repro.topology.build_deployment; the hand-assembly helpers and the "
        "dead code swept with them may not grow back",
        "def _build_cluster(args):",
    ),
    Gate(
        "assembly-callers",
        r"Cluster\.build\(|ShardedDeliveryPipeline\(|DurabilityManager\(|"
        r"TopKPerUserBuffer\(|ServingCache\(",
        ("src/repro/cli.py", "src/repro/durability/recover.py"),
        "the CLI and recovery assemble nothing themselves",
        "cluster = Cluster.build(snapshot)",
    ),
    Gate(
        "shared-d",
        r"\bshare=|\bshared_d\b|\bprivate_d\b",
        ("src",),
        "shared and private D go through one stream-position rule; "
        "sharing is chosen by Cluster.build, never by a flag",
        "PartitionServer(share=True)",
    ),
    Gate(
        "one-batched-entry",
        "def process_batch_grouped",
        ("src",),
        "one batched engine entry",
        "    def process_batch_grouped(self, batch):",
        count=1,
        literal=True,
    ),
    Gate(
        "run",
        "distinct_target_runs|apply_runs|scan_run|fresh_run|def claim",
        ("src",),
        "D scans each batch once; the run split, its per-run "
        "insert-and-scan and its claim bookkeeping may not grow back",
        "runs = distinct_target_runs(batch)",
    ),
    Gate(
        "layout-option",
        "derive_promote_threshold|PROMOTE_THRESHOLD_BOUNDS|promote_threshold=|"
        "promote_threshold:",
        ("src",),
        "promotion happens at D's own constant; no keyword, config "
        "field or derivation may set it again",
        "DynamicEdgeIndex(promote_threshold=64)",
    ),
    Gate(
        "layout-flag",
        "promote",
        ("src/repro/cli.py", "src/repro/topology.py"),
        "no CLI flag or deployment field names promotion",
        "--Promote-Threshold",
        literal=True,
        ignore_case=True,
    ),
    Gate(
        "bulk-load",
        "invert_follow_edges|pack_rows|include_source=lambda|_splitmix64|_MASK64",
        ("src",),
        "one columnar S inversion and one splitmix64; the "
        "per-partition inversion, predicate lambdas, row packer and private "
        "hash copies may not grow back",
        "shard = invert_follow_edges(snapshot)",
    ),
    Gate(
        "audience-loop",
        "_detect_run|_as_batch",
        ("src",),
        "the per-run emission loop and the engine's per-event "
        "normaliser stay gone",
        "self._detect_run(run)",
    ),
    Gate(
        "audience-flag",
        "sliding|audience|overlap",
        ("src/repro/topology.py", "src/repro/cli.py"),
        "no deployment field or flag selects a detection kernel",
        "--Sliding-Window",
        ignore_case=True,
    ),
    Gate(
        "audience-crossover",
        "CROSSOVER|k_overlap_(heap|numpy|scancount)",
        ("src/repro/core/diamond.py",),
        "the detector's one k-overlap is k_overlap_arrays, with "
        "no crossover",
        "k_overlap_heap(lists, k)",
    ),
    Gate(
        "audience-config",
        "sliding|audience|overlap",
        ("src/repro/cluster/cluster.py",),
        "no ClusterConfig option selects a kernel or sets a size "
        "crossover",
        "    sliding_audience: bool = True",
        ignore_case=True,
        section="ClusterConfig",
    ),
    Gate(
        "currency",
        r"encode_grouped|decode_grouped|frame_grouped|grouped_payload_from_frame|"
        r"EMPTY_RECOMMENDATION_BATCH\] \*|def concat\(",
        ("src",),
        "one candidate batch per partition per flush; the "
        "per-event reply codec, empty-batch-per-event lists and pairwise "
        "concat may not grow back",
        "[EMPTY_RECOMMENDATION_BATCH] * len(batch)",
    ),
    Gate(
        "motif",
        "DeclarativeDetector|PlanContext|KOverlapOp|IndexStatistics|"
        "choose_algorithm|collect_statistics|operator_stats",
        ("src",),
        "a spec compiles onto the batched diamond kernel; the "
        "per-edge plan executor, its operators and cost model stay gone",
        "detector = DeclarativeDetector(plan)",
    ),
    Gate(
        "reach-names",
        "DynamicSourceIndex|SpreeDetector|SpreeAlert|core\\.spree|"
        "save_dynamic_index|load_dynamic_index|clone_state_from|"
        "ingest_notifications|from_recommendations|_with_npz_suffix|"
        "def save_npz",
        ("src",),
        "state persists one way (state_arrays / load_state into the "
        "SnapshotStore); the .npz files, spree D, resync's copy and the "
        "boxed adapters nothing fed may not grow back",
        "index.clone_state_from(source)",
    ),
    Gate(
        "reach-from-snapshot",
        "def from_snapshot",
        ("src/repro",),
        "MotifEngine.from_snapshot (an engine from a GraphSnapshot) "
        "is the only one",
        "    def from_snapshot(cls, path):",
        literal=True,
        exclude=("src/repro/core/engine.py",),
    ),
    Gate(
        "reach-allow-mask",
        'getattr(stage, "allow_mask"',
        ("src/repro/delivery/pipeline.py",),
        "allow_mask is part of the DeliveryFilter protocol; no "
        "per-candidate fallback for stages without it",
        'mask = getattr(stage, "allow_mask", None)',
        literal=True,
    ),
    Gate(
        "one-worker-wire",
        r"""["']inprocess["'], ["']process["']|"""
        r"""transport[^\n]{0,12}[=!]=?\s*["']process["']|"""
        r"--transport process|process/shm|process\|shm|"
        r"shm_slots|shm_slot_bytes|worker_start_method|\bstart_method\b|"
        r"DELIVERY_TRANSPORTS|wire_kind",
        ("src",),
        "the host decides whether it gets a ring; no "
        "transport name, start method or ring size selects the wire",
        'TRANSPORTS = ("inprocess", "process", "shm")',
    ),
]

#: Deleted files and why; each parent directory exists, so the check
#: cannot pass because a path is misspelt.
DELETED_FILES = [
    ("src/repro/motif/plan.py", "motif: the per-edge plan executor"),
    ("src/repro/motif/optimizer.py", "motif: the plan cost model"),
    ("src/repro/core/spree.py", "reach: the follow-spree sketch"),
]


def _files(gate: Gate) -> list[Path]:
    out = []
    for name in gate.paths:
        path = ROOT / name
        assert path.exists(), f"gate path {name} is gone: fix the row"
        out.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    excluded = {ROOT / name for name in gate.exclude}
    return [path for path in out if path not in excluded]


def _lines(path: Path, section: str | None) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if section is None:
        return lines
    start = next(
        i for i, line in enumerate(lines) if line.startswith(f"class {section}")
    )
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].startswith("class ")),
        len(lines),
    )
    return lines[start:end]


@pytest.mark.parametrize("gate", GATES, ids=[gate.name for gate in GATES])
def test_deleted_name_stays_deleted(gate):
    regex = gate.regex()
    assert regex.search(gate.planted), "the pattern matches nothing: fix the row"
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in _files(gate)
        for number, line in enumerate(_lines(path, gate.section), 1)
        if regex.search(line)
    ]
    assert len(hits) == gate.count, f"{gate.why}\n" + "\n".join(hits)


@pytest.mark.parametrize(
    "path, why", DELETED_FILES, ids=[row[0] for row in DELETED_FILES]
)
def test_deleted_file_stays_deleted(path, why):
    assert (ROOT / path).parent.is_dir(), "the directory is gone: fix the row"
    assert not (ROOT / path).exists(), why
