"""``TopologyConfig``: one deployment description for simulate, serve,
recover and the WAL root.

Four contracts: the JSON form is lossless; roots written before the config
was stored whole still load to what their recovery assumed; a bad value is
a usage error naming its flag *before* any side effect; and every field
reaches the objects the one assembly function builds.
"""

import json
import multiprocessing
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import ClusterConfig
from repro.core import DetectionParams
from repro.delivery import ShardedDeliveryPipeline
from repro.durability.manager import load_root_config
from repro.graph import GraphSnapshot
from repro.graph.dynamic_index import DEFAULT_PROMOTE_THRESHOLD
from repro.ops import ControllerConfig
from repro.serving import ServingCacheConfig
from repro.streaming import StreamingTopology
from repro.topology import TopologyConfig, build_deployment

FIXTURES = Path(__file__).parent / "fixtures"

#: Every field set away from its default (the first test holds it to that).
EVERYTHING = TopologyConfig(
    detection=DetectionParams(k=2, tau=600.0, max_trigger_sources=9),
    cluster=ClusterConfig(num_partitions=3, max_edges_per_target=77),
    controller=ControllerConfig(interval=0.25, slo_p99=30.0),
    serving=ServingCacheConfig(k=3, capacity=64, ttl=900.0),
    seed=11,
    batch_size=8,
    max_batch_wait=0.5,
    delivery_batch_size=16,
    delivery_max_wait=0.75,
    delivery_shards=2,
    ranked_k=3,
    query_qps=40.0,
    snapshot_interval=12.5,
    wal_fsync_every=7,
    wal_throttle=0.001,
    wal_gc=False,
    hop_median=1.5,
    hop_sigma=0.25,
)


def test_the_everything_config_leaves_no_field_at_its_default():
    """A field added later must be added to ``EVERYTHING`` too, or the
    round-trip and reaches-the-built-objects tests would not cover it."""
    default = TopologyConfig()
    for spec in fields(TopologyConfig):
        assert getattr(EVERYTHING, spec.name) != getattr(default, spec.name), (
            spec.name
        )


@pytest.mark.parametrize(
    "config",
    [
        TopologyConfig(),
        EVERYTHING,
        replace(EVERYTHING, controller=None, hop_sigma=None, ranked_k=None),
        replace(EVERYTHING, serving=ServingCacheConfig(ttl=None), query_qps=None),
    ],
    ids=["defaults", "everything", "nones", "nested-none"],
)
def test_json_round_trip_is_the_identity(config):
    wire = json.dumps(config.to_dict())
    assert TopologyConfig.from_dict(json.loads(wire)) == config
    assert set(config.to_dict()) == {spec.name for spec in fields(config)}


def test_absent_keys_take_the_defaults_at_either_level():
    loaded = TopologyConfig.from_dict({"detection": {"k": 2}, "seed": 5})
    assert loaded == replace(
        TopologyConfig(),
        detection=replace(TopologyConfig().detection, k=2),
        seed=5,
    )


class TestLegacyRoots:
    """``config.json`` files committed exactly as PR <= 20 wrote them."""

    def load(self, name: str) -> TopologyConfig:
        return TopologyConfig.from_dict(json.loads((FIXTURES / name).read_text()))

    def test_three_key_dict_of_the_durability_bench_and_crash_suite(self):
        assert self.load("root_config_3key.json") == TopologyConfig(
            detection=DetectionParams(k=2, tau=600.0),
            cluster=ClusterConfig(num_partitions=2),
        )

    def test_thirteen_key_config_of_pr20_simulate(self):
        """Written by ``simulate --partitions 2 --batch-size 4 --seed 3
        --ranked --ranked-k 3 --query-qps 20 --serving-ttl 900
        --delivery-shards 2``.  Its recovery replayed through *one* dedup
        funnel whatever ``serving_shards`` said (the key only shaped the
        rebuilt cache), so that is what it loads to."""
        config = self.load("root_config_pr20.json")
        assert config == TopologyConfig(
            detection=DetectionParams(k=3, tau=1800.0),
            cluster=ClusterConfig(num_partitions=2),
            serving=ServingCacheConfig(k=3, ttl=900.0),
            seed=3,
            batch_size=4,
            ranked_k=3,
        )
        assert config.windows_reproducible

    def test_flags_that_were_flat_booleans(self):
        flat = json.loads((FIXTURES / "root_config_pr20.json").read_text())
        off = TopologyConfig.from_dict({**flat, "serving": False})
        assert off.serving is None
        adaptive = TopologyConfig.from_dict({**flat, "adaptive": True})
        assert adaptive.controller == ControllerConfig()
        assert not adaptive.windows_reproducible
        # Roots older than the ``serving`` flag carried only the shape.
        del flat["serving"]
        assert TopologyConfig.from_dict(flat).serving == ServingCacheConfig(
            k=3, ttl=900.0
        )

    def test_retired_keys_are_ignored(self):
        loaded = TopologyConfig.from_dict(
            {"k": 2, "s_backend": "csr", "cluster": {"d_backend": "ring"}}
        )
        assert loaded.detection.k == 2

    def test_root_with_a_promote_threshold_loads_and_builds(self, tmp_path):
        """Roots written while the D layout switch was a cluster option
        carry ``cluster.promote_threshold``; the key is ignored and the
        deployment builds with D's own layout."""
        stored = {
            "detection": {"k": 2, "tau": 600.0},
            "cluster": {"num_partitions": 2, "promote_threshold": 77},
        }
        (tmp_path / "config.json").write_text(json.dumps(stored))
        config = load_root_config(tmp_path)
        assert config == TopologyConfig(
            detection=DetectionParams(k=2, tau=600.0),
            cluster=ClusterConfig(num_partitions=2),
        )
        snapshot = GraphSnapshot.from_edges([(0, 3), (1, 3)], num_nodes=4)
        with build_deployment(config, snapshot) as deployment:
            replica = deployment.cluster.broker.replica_sets[0].replicas[0]
            dynamic = replica.engine.dynamic_index
            assert dynamic.promote_threshold == DEFAULT_PROMOTE_THRESHOLD


# ----------------------------------------------------------------------
# Validation: before any side effect, naming the flag
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("topology-config")
    graph, stream = base / "g.npz", base / "s.csv"
    assert main(["generate-graph", str(graph), "--users", "200", "--seed", "1"]) == 0
    assert main(
        ["generate-stream", str(stream), "--users", "200", "--duration", "60",
         "--rate", "4", "--seed", "1"]
    ) == 0
    return graph, stream


BAD_SIMULATE_FLAGS = [
    (["--wal-fsync-every", "0"], "--wal-fsync-every"),
    (["--batch-size", "0"], "--batch-size"),
    (["--delivery-batch-size", "0"], "--delivery-batch-size"),
    (["--delivery-shards", "0"], "--delivery-shards"),
    (["--partitions", "0"], "--partitions"),
    (["--k", "0"], "--k"),
    (["--tau", "-5"], "--tau"),
    (["--ranked", "--ranked-k", "0"], "--ranked-k"),
    (["--max-batch-wait", "-1"], "--max-batch-wait"),
    (["--delivery-max-wait", "-1"], "--delivery-max-wait"),
    (["--adaptive", "--controller-interval", "0"], "--controller-interval"),
    (["--hop-median", "1", "--hop-sigma", "-1"], "--hop-sigma"),
    (["--hop-sigma", "0.3"], "--hop-sigma"),
    (["--query-qps", "0"], "--query-qps"),
    (["--query-qps", "5", "--serving-ttl", "0"], "--serving-ttl"),
    (["--wal-throttle", "-1"], "--wal-throttle"),
    (["--slo-p99", "60"], "--slo-p99"),
]


@pytest.mark.parametrize(
    "bad, flag", BAD_SIMULATE_FLAGS, ids=[" ".join(bad) for bad, _ in BAD_SIMULATE_FLAGS]
)
def test_simulate_rejects_a_bad_value_before_any_side_effect(
    artifacts, tmp_path, capsys, bad, flag
):
    """Exit 2 with ``error: --flag ...``; no durability root written (the
    parent wrote graph.npz + config.json, died on ``--wal-fsync-every 0``,
    and ``recover`` then reported an empty deployment as recovered) and no
    worker spawned (under ``--transport process`` a late exception leaked
    the whole fleet)."""
    graph, stream = artifacts
    root = tmp_path / "root"
    code = main(
        ["simulate", str(graph), str(stream), "--transport", "shm",
         "--wal-dir", str(root), *bad]
    )
    assert code == 2
    assert f"error: {flag} " in capsys.readouterr().err
    assert not root.exists()
    assert multiprocessing.active_children() == []


def test_simulate_snapshot_interval_requires_a_wal_dir(artifacts, capsys):
    graph, stream = artifacts
    assert main(["simulate", str(graph), str(stream), "--snapshot-interval", "5"]) == 2
    assert "error: --snapshot-interval requires --wal-dir" in capsys.readouterr().err


def test_adaptive_root_is_the_same_from_any_directory(
    artifacts, tmp_path, capsys, monkeypatch
):
    """``simulate --adaptive`` once placed D's ring promotion from a bench
    record found relative to the working directory.  Run next to such a
    record (its crossover said 64) and in an empty directory, it now
    writes the same root, neither report names a threshold, and the
    stored config builds D with its own constant.  (The reports' latency
    lines are measured, so they are not compared.)"""
    graph, stream = artifacts
    with_record = tmp_path / "with-record"
    results = with_record / "benchmarks" / "results"
    results.mkdir(parents=True)
    (results / "BENCH_ingest.json").write_text(json.dumps({
        "benchmark": "ingest",
        "results": [{
            "params": {"workload": "viral-scan", "entries": 256},
            "metrics": {"ring_speedup": 4.0},
        }],
    }))
    empty = tmp_path / "empty"
    empty.mkdir()

    roots, reports = [], []
    for cwd in (with_record, empty):
        monkeypatch.chdir(cwd)
        root = cwd / "root"
        code = main(
            ["simulate", str(graph), str(stream), "--k", "2", "--partitions", "2",
             "--seed", "1", "--adaptive", "--wal-dir", str(root)]
        )
        assert code == 0
        roots.append((root / "config.json").read_text())
        reports.append(capsys.readouterr().out)
    assert roots[0] == roots[1]
    assert "promote" not in roots[0]
    for report in reports:
        assert "control plane" in report and "promote" not in report

    config = TopologyConfig.from_dict(json.loads(roots[0]))
    assert config.controller is not None
    snapshot = GraphSnapshot.from_edges([(0, 3), (1, 3)], num_nodes=4)
    with build_deployment(config, snapshot) as deployment:
        replica = deployment.cluster.broker.replica_sets[0].replicas[0]
        assert replica.engine.dynamic_index.promote_threshold == DEFAULT_PROMOTE_THRESHOLD


@pytest.mark.parametrize(
    "bad, flag",
    [
        (["--serving-shards", "0"], "--serving-shards"),
        (["--topk", "0"], "--topk"),
        (["--partitions", "0"], "--partitions"),
    ],
)
def test_serve_rejects_a_bad_value_naming_its_own_flag(artifacts, capsys, bad, flag):
    graph, stream = artifacts
    assert main(["serve", str(graph), str(stream), "--smoke-queries", "1", *bad]) == 2
    assert f"error: {flag} " in capsys.readouterr().err


# ----------------------------------------------------------------------
# Every field reaches what gets built
# ----------------------------------------------------------------------


def test_every_field_reaches_the_built_objects(tmp_path):
    """Catches the next forgotten key by construction: the config with
    nothing at its default, through ``build_deployment`` and
    ``StreamingTopology.over`` — the path ``simulate`` takes."""
    snapshot = GraphSnapshot.from_edges([(0, 3), (1, 3), (1, 4), (2, 4)], num_nodes=8)
    config = EVERYTHING
    root = tmp_path / "root"
    with build_deployment(config, snapshot, wal_dir=root) as deployment:
        topology = StreamingTopology.over(deployment, snapshot.num_users)

        # The root stores the config whole.
        stored = json.loads((root / "config.json").read_text())
        assert stored == config.to_dict()
        assert set(stored) == {spec.name for spec in fields(config)}

        # detection / cluster
        cluster = deployment.cluster
        assert cluster.params == config.detection
        assert cluster.partitioner.num_partitions == 3
        replica = cluster.broker.replica_sets[0].replicas[0]
        assert replica.engine.dynamic_index.max_edges_per_target == 77

        # delivery_shards / serving: the shards own the caches
        assert isinstance(deployment.delivery, ShardedDeliveryPipeline)
        assert deployment.delivery.num_shards == 2
        assert deployment.parent_cache is None
        assert topology.serving is deployment.delivery.serving
        shard_cache = topology.serving.shards[0]
        assert (shard_cache.k, shard_cache.ttl) == (3, 900.0)

        # ranked_k / controller / query_qps + seed / snapshot_interval
        assert topology.coalescer._ranker.k == 3
        assert topology.controller.config is config.controller
        assert topology.admission is not None  # slo_p99 armed the shed rung
        assert topology.query_load._interval == pytest.approx(1 / 40.0)
        assert topology._snapshot_interval == 12.5

        # wal_fsync_every / wal_throttle / wal_gc
        durability = topology.durability
        assert durability is deployment.durability
        assert durability.cluster is cluster
        assert durability.wal.fsync_every == 7
        assert durability.throttle_seconds == 0.001
        assert durability.gc_segments is False

        # hop_median / hop_sigma / seed
        hop = topology.firehose._delay_model
        assert (hop.median, hop.sigma) == (1.5, 0.25)
        again = config.hop_models()["firehose"]
        assert [hop() for _ in range(3)] == [again() for _ in range(3)]

    # Without a controller the static windows are what the consumers get,
    # one funnel taps one cache, and a zero median means fixed hops.
    static = replace(
        config,
        controller=None,
        delivery_shards=1,
        snapshot_interval=None,  # no durability root below
        hop_median=0.0,
        hop_sigma=None,
    )
    with build_deployment(static, snapshot) as deployment:
        topology = StreamingTopology.over(deployment, snapshot.num_users)
        assert deployment.durability is None
        assert (topology.consumer.batch_size, topology.consumer.max_wait) == (8, 0.5)
        assert (topology.coalescer.batch_size, topology.coalescer.max_wait) == (
            16,
            0.75,
        )
        assert topology.serving is deployment.parent_cache
        assert topology.serving.k == 3
        assert topology.firehose._delay_model() == 0.0
