"""E11 — Intersection-kernel ablation: "intersections can be implemented
efficiently using well-known algorithms".

The paper keeps S's adjacency lists sorted precisely to make the
bottom-half intersections cheap.  This experiment ablates the kernel
choices on the two list shapes that matter:

* **balanced** lists (two ordinary users' followers);
* **skewed** lists (an ordinary user against a celebrity hub), where
  galloping's O(|short| log |long|) beats the linear merge;

and the k-overlap algorithms (ScanCount vs heap merge vs numpy vs the
detector's array kernel) at the sizes the detector actually sees — plus
the array kernel on cold triggers whose audience is empty, and the
batched detector's sliding kernel on a hub burst, against one k-overlap
per trigger.
"""

import time

import numpy as np
import pytest

from repro.bench.workloads import BENCH_PARAMS, firehose_stream_config
from repro.core import DiamondDetector
from repro.gen import TwitterGraphConfig, ZipfSampler, generate_follow_graph
from repro.graph import DynamicEdgeIndex, build_follower_snapshot
from repro.graph.intersect import (
    intersect_galloping,
    intersect_hash,
    intersect_merge,
    k_overlap_arrays,
    k_overlap_heap,
    k_overlap_numpy,
    k_overlap_scancount,
)
from repro.util.rng import make_rng

#: The hub group: a burst target triggering this many times within one
#: batch, each trigger expanding the newest ``max_trigger_sources``.
HUB_TRIGGERS = 64
HUB_WITNESSES = BENCH_PARAMS.max_trigger_sources

#: E11's cold row: this many cold triggers of 3-5 witnesses each, every
#: one with an empty k-overlap.
COLD_TRIGGERS = 256


def sorted_sample(rng, universe, size):
    return sorted(rng.sample(range(universe), size))


@pytest.fixture(scope="module")
def balanced_lists():
    rng = make_rng(5, "balanced")
    return (
        sorted_sample(rng, 200_000, 5_000),
        sorted_sample(rng, 200_000, 5_000),
    )


@pytest.fixture(scope="module")
def skewed_lists():
    rng = make_rng(5, "skewed")
    return (
        sorted_sample(rng, 2_000_000, 200),
        sorted_sample(rng, 2_000_000, 200_000),
    )


@pytest.fixture(scope="module")
def follow_graph():
    """A 20k-user follow graph and its static follower index S."""
    snapshot = generate_follow_graph(
        TwitterGraphConfig(num_users=20_000, mean_followings=15.0, seed=5)
    )
    return snapshot, build_follower_snapshot(snapshot)


@pytest.fixture(scope="module")
def cold_triggers(follow_graph):
    """Follower arrays of cold triggers as the detector fetches them:
    3-5 witnesses drawn like ``cold_firehose``'s background actors, kept
    when their k-overlap is empty — the common cold outcome."""
    snapshot, static = follow_graph
    rng = make_rng(5, "cold")
    actors = ZipfSampler(
        snapshot.num_users, firehose_stream_config().actor_popularity_exponent, rng
    )
    triggers = []
    while len(triggers) < COLD_TRIGGERS:
        witnesses = set(actors.sample_many(rng.randint(3, 5)))
        lists = [arr for arr in map(static.follower_array, witnesses) if arr is not None]
        if len(lists) >= BENCH_PARAMS.k and not k_overlap_scancount(lists, BENCH_PARAMS.k):
            triggers.append(lists)
    return triggers


@pytest.fixture(scope="module")
def witness_lists():
    """Eight follower lists as a hot trigger would fetch them."""
    rng = make_rng(5, "witness")
    return [sorted_sample(rng, 100_000, rng.randint(500, 8_000)) for _ in range(8)]


@pytest.mark.parametrize(
    "algo", [intersect_merge, intersect_galloping, intersect_hash]
)
def test_pairwise_balanced(benchmark, algo, balanced_lists):
    benchmark.group = "E11 pairwise balanced (5k x 5k)"
    a, b = balanced_lists
    result = benchmark(lambda: algo(a, b))
    assert result == intersect_merge(a, b)


@pytest.mark.parametrize(
    "algo", [intersect_merge, intersect_galloping, intersect_hash]
)
def test_pairwise_skewed(benchmark, algo, skewed_lists):
    benchmark.group = "E11 pairwise skewed (200 x 200k)"
    a, b = skewed_lists
    result = benchmark(lambda: algo(a, b))
    assert result == intersect_merge(a, b)


@pytest.mark.parametrize(
    "algo", [k_overlap_scancount, k_overlap_heap, k_overlap_numpy]
)
def test_k_overlap_hot_trigger(benchmark, algo, witness_lists):
    benchmark.group = "E11 k-overlap (8 witness lists, k=3)"
    result = benchmark(lambda: algo(witness_lists, 3))
    assert result == k_overlap_scancount(witness_lists, 3)


def best_of(func, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_record_ablation_table(
    benchmark, balanced_lists, skewed_lists, witness_lists, cold_triggers, report
):
    """Summarise the crossovers in the experiment table (single-shot timings)."""
    benchmark(lambda: intersect_galloping(*skewed_lists))
    witness_arrays = [np.asarray(values, dtype=np.int64) for values in witness_lists]
    assert k_overlap_arrays(witness_arrays, 3).tolist() == k_overlap_scancount(
        witness_lists, 3
    )

    def cold_audiences():
        for lists in cold_triggers:
            k_overlap_arrays(lists, BENCH_PARAMS.k)

    assert not any(k_overlap_arrays(lists, BENCH_PARAMS.k).size for lists in cold_triggers)

    rows = [
        ("merge, balanced", best_of(intersect_merge, *balanced_lists)),
        ("galloping, balanced", best_of(intersect_galloping, *balanced_lists)),
        ("merge, skewed", best_of(intersect_merge, *skewed_lists)),
        ("galloping, skewed", best_of(intersect_galloping, *skewed_lists)),
        ("scancount, 8 lists", best_of(k_overlap_scancount, witness_lists, 3)),
        ("heap-merge, 8 lists", best_of(k_overlap_heap, witness_lists, 3)),
        ("numpy, 8 lists", best_of(k_overlap_numpy, witness_lists, 3)),
        ("arrays, 8 lists", best_of(k_overlap_arrays, witness_arrays, 3)),
        (f"arrays, {COLD_TRIGGERS} cold triggers", best_of(cold_audiences)),
    ]
    table = report.table(
        "E11",
        "intersection / k-overlap kernel ablation",
        ["kernel, shape", "best time"],
    )
    for name, seconds in rows:
        table.add_row(name, f"{seconds * 1e3:.3f} ms")
        kernel, shape = (part.strip() for part in name.split(","))
        report.record(
            "intersection",
            {"kernel": kernel, "shape": shape},
            {"best_ms": round(seconds * 1e3, 4)},
        )
    timings = dict(rows)
    report.record(
        "intersection",
        {"comparison": "crossovers"},
        {
            "gallop_speedup_skewed": round(
                timings["merge, skewed"] / max(timings["galloping, skewed"], 1e-9), 3
            ),
            "numpy_speedup_koverlap": round(
                timings["heap-merge, 8 lists"] / max(timings["numpy, 8 lists"], 1e-9), 3
            ),
        },
    )
    table.add_note(
        "expected shape: galloping wins on skewed pairs "
        f"({timings['merge, skewed'] / max(timings['galloping, skewed'], 1e-9):.1f}x here); "
        "numpy wins large k-overlap "
        f"({timings['heap-merge, 8 lists'] / max(timings['numpy, 8 lists'], 1e-9):.1f}x over heap)"
    )

    # The load-bearing crossover (generously margined to dodge CI noise).
    assert timings["galloping, skewed"] < timings["merge, skewed"], (
        "galloping must beat the linear merge on 1000x-skewed lists"
    )


def test_sliding_hub_group(follow_graph, report):
    """One hub target triggering 64 times in a batch, 32 witnesses each,
    the window sliding by one witness per trigger: the sliding kernel's
    one sort against 64 ``k_overlap_arrays`` calls.

    Witnesses are drawn as ``hub_burst``'s burst actors are — with full
    popularity bias, so their follower lists are the graph's long ones.
    """
    snapshot, static = follow_graph
    users = np.fromiter(static.sources(), np.int64)
    lengths = np.array([len(static.followers_of(b)) for b in users.tolist()])
    rng = np.random.default_rng(5)
    sequence = rng.choice(
        users,
        size=HUB_WITNESSES + HUB_TRIGGERS - 1,
        replace=False,
        p=lengths / lengths.sum(),
    ).tolist()
    windows = [
        sequence[t : t + HUB_WITNESSES] for t in range(HUB_TRIGGERS)
    ]
    target = snapshot.num_users - 1
    detector = DiamondDetector(
        static,
        DynamicEdgeIndex(retention=BENCH_PARAMS.tau),
        BENCH_PARAMS,
        inserts_edges=False,
    )
    per_window = [
        [arr for arr in map(static.follower_array, window) if arr is not None]
        for window in windows
    ]

    def per_trigger():
        for lists in per_window:
            k_overlap_arrays(lists, BENCH_PARAMS.k)

    def sliding():
        return detector._sliding_audience(target, windows)

    solved = sliding()
    assert solved is not None, "the hub group must take the sliding kernel"
    oracle = [detector._audience_batch(target, window) for window in windows]
    assert [None if r is None else r.tolist() for r in solved] == [
        None if r is None else r.tolist() for r in oracle
    ]
    per_trigger_s = best_of(per_trigger, repeats=15)
    sliding_s = best_of(sliding, repeats=15)
    speedup = per_trigger_s / max(sliding_s, 1e-9)
    table = report.table(
        "E11",
        "sliding-window k-overlap: one sort per hub group",
        ["kernel, shape", "best time"],
    )
    table.add_row("per-trigger k-overlap, hub group", f"{per_trigger_s * 1e3:.3f} ms")
    table.add_row("sliding kernel, hub group", f"{sliding_s * 1e3:.3f} ms")
    table.add_note(
        f"hub group ({HUB_TRIGGERS} triggers x {HUB_WITNESSES} witnesses, "
        f"mean follower list {np.mean([len(a) for a in per_window[0]]):.0f}): "
        f"sliding kernel {speedup:.1f}x over one k-overlap per trigger"
    )
    report.record(
        "intersection",
        {"comparison": "sliding hub group"},
        {
            "per_trigger_ms": round(per_trigger_s * 1e3, 4),
            "sliding_ms": round(sliding_s * 1e3, 4),
            "speedup_sliding_hub": round(speedup, 3),
        },
    )
    assert speedup > 1.5, "one sort per hub group must beat one per trigger"
