"""Crash-kill-restart equivalence: SIGKILL mid-run, recover, compare.

The durable tier's headline guarantee, pinned end to end: a topology
running with a WAL (and periodic incremental snapshots) is SIGKILLed at
a randomized point mid-stream — whole process group, so worker-hosted
partitions die with their broker, like a machine failure — and recovery
must then reproduce the uninterrupted run's delivered multiset exactly
for every event the WAL retained (a crash may legitimately lose only
the un-flushed tail).  Runs use deterministic zero-delay queue hops
(``--hop-median 0``), the regime in which delivery is bit-for-bit
reproducible, and are parametrized over both broker transports.

Warm-start (latest snapshot + WAL tail) and cold-start (full WAL
replay) must also agree with *each other* row for row — the proof that
snapshots are a pure replay accelerator, never a semantic input.
"""

import csv
import glob
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

SEED = 3
PARTITIONS = 2
SIM_ARGS = [
    "--partitions",
    str(PARTITIONS),
    "--batch-size",
    "4",
    "--hop-median",
    "0",
    "--seed",
    str(SEED),
]


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """Graph, stream, and the uninterrupted run's delivered ledger."""
    base = tmp_path_factory.mktemp("crash-workload")
    graph = base / "g.npz"
    stream = base / "s.csv"
    reference = base / "ref.csv"
    assert main(
        ["generate-graph", str(graph), "--users", "250", "--seed", str(SEED)]
    ) == 0
    assert main(
        [
            "generate-stream",
            str(stream),
            "--users",
            "250",
            "--duration",
            "100",
            "--rate",
            "5",
            "--seed",
            str(SEED),
        ]
    ) == 0
    assert main(
        ["simulate", str(graph), str(stream), *SIM_ARGS]
        + ["--dump-delivered", str(reference)]
    ) == 0
    return graph, stream, reference


def _wal_bytes(root: Path) -> int:
    wal = root / "wal"
    if not wal.exists():
        return 0
    return sum(p.stat().st_size for p in wal.glob("wal-*.log"))


def _read_rows(path: Path) -> list[tuple]:
    """Sorted (recipient, candidate, created_at) triples of a ledger CSV.

    ``delivered_at`` is deliberately excluded: it embeds *measured*
    detection wall-clock mapped into virtual time, so it legitimately
    differs run to run (and between live delivery and replay).  The
    equivalence contract is the triple multiset.
    """
    with open(path, newline="") as handle:
        return sorted(tuple(row[:3]) for row in csv.reader(handle))


def _run_and_kill(cmd: list[str], root: Path, kill_after_bytes: int) -> int:
    """Run *cmd* in its own process group; SIGKILL it once the WAL grows.
    Returns the pid of the (now dead) run.

    Killing the group takes down worker-hosted partitions together with
    the broker — a whole-machine failure, the case recovery exists for.
    SIGKILL specifically: no handlers, no flushes, no atexit.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        cmd,
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                # Finished before the kill landed: recovery must then
                # reproduce the complete run — still a valid (if easier)
                # equivalence check.
                return proc.pid
            if _wal_bytes(root) >= kill_after_bytes:
                break
            time.sleep(0.005)
        else:
            pytest.fail("crash run neither produced WAL bytes nor exited")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        return proc.pid
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test bugs
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)


@pytest.mark.parametrize("transport", ["inprocess", "shm"])
def test_sigkill_recover_equivalence(workload, tmp_path, transport):
    graph, stream, reference = workload
    root = tmp_path / f"root-{transport}"
    # Randomized (but reproducible) kill point, different per transport;
    # the reference run's WAL-free ledger has ~500 events -> the full
    # log lands around 70-80 KiB, so this spans early-to-late kills.
    kill_after = random.Random(f"{SEED}-{transport}").randrange(4_000, 45_000)
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "simulate",
        str(graph),
        str(stream),
        *SIM_ARGS,
        "--transport",
        transport,
        "--wal-dir",
        str(root),
        "--snapshot-interval",
        "15",
        "--no-wal-gc",
        "--wal-fsync-every",
        "8",
        "--wal-throttle",
        "0.004",
    ]
    killed_pid = _run_and_kill(cmd, root, kill_after)
    assert _wal_bytes(root) > 0

    # Warm-start recovery (snapshot + WAL tail) must match the
    # uninterrupted reference on every event the WAL retained.
    warm = tmp_path / f"warm-{transport}.csv"
    assert main(
        [
            "recover",
            str(root),
            "--verify-prefix",
            str(reference),
            "--dump-delivered",
            str(warm),
        ]
    ) == 0
    # kill -9 ran no cleanup: the dead run's shm segments (named under its
    # pid) are reclaimed by recover, not left for the next reboot.
    assert glob.glob(f"/dev/shm/repro_shm_{killed_pid}_*") == []

    # Cold-start (pure replay, snapshots ignored) must match it too...
    cold = tmp_path / f"cold-{transport}.csv"
    assert main(
        [
            "recover",
            str(root),
            "--ignore-snapshots",
            "--verify-prefix",
            str(reference),
            "--dump-delivered",
            str(cold),
        ]
    ) == 0

    # ...and the two recovered ledgers must be identical row for row:
    # snapshots accelerate replay, they never change its result.
    assert _read_rows(warm) == _read_rows(cold)


@pytest.mark.parametrize("transport", ["inprocess", "shm"])
def test_sharded_funnel_recovers_from_an_early_snapshot(
    workload, tmp_path, transport
):
    """A ``--delivery-shards 2`` run dies after its second snapshot: the
    later ones are gone, so warm recovery replays a long WAL tail into a
    sharded funnel.  Every shard's dedup table must come back from the
    snapshot — an empty one re-delivers pairs the run already sent."""
    from repro.durability.recover import recover

    graph, stream, reference = workload
    root = tmp_path / f"root-sharded-{transport}"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--delivery-shards",
            "2",
            "--transport",
            transport,
            "--wal-dir",
            str(root),
            "--snapshot-interval",
            "15",
            "--no-wal-gc",
        ]
    ) == 0
    snapshots = sorted((root / "snapshots").glob("snap-*"))
    assert len(snapshots) > 3
    for late in snapshots[2:]:
        shutil.rmtree(late)
    result = recover(root)
    try:
        assert result.snapshot_id == snapshots[1].name
        assert result.replayed_records > 0
    finally:
        result.close()
    recovered = tmp_path / "recovered-sharded.csv"
    assert main(
        [
            "recover",
            str(root),
            "--verify-prefix",
            str(reference),
            "--dump-delivered",
            str(recovered),
        ]
    ) == 0
    assert _read_rows(recovered) == _read_rows(reference)


def test_root_written_for_the_queue_wire_recovers(workload, tmp_path):
    """Roots written while ``transport="process"`` named the queue-only
    worker wire store that name and the wire's three knobs.  Recovery
    lifts the name to ``"shm"`` (then pins ``inprocess`` as always),
    ignores the knobs, and reproduces the uninterrupted ledger."""
    import json

    from repro.durability.manager import load_root_config

    graph, stream, reference = workload
    root = tmp_path / "root-queue-wire"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--wal-dir",
            str(root),
            "--snapshot-interval",
            "15",
            "--no-wal-gc",
        ]
    ) == 0
    config_path = root / "config.json"
    config = json.loads(config_path.read_text())
    config["cluster"] = {
        **config["cluster"],
        "transport": "process",
        "worker_start_method": None,
        "shm_slots": 8,
        "shm_slot_bytes": 1 << 20,
    }
    config_path.write_text(json.dumps(config, indent=1))
    assert load_root_config(root).cluster.transport == "shm"
    recovered = tmp_path / "recovered-queue-wire.csv"
    assert main(
        [
            "recover",
            str(root),
            "--verify-prefix",
            str(reference),
            "--dump-delivered",
            str(recovered),
        ]
    ) == 0
    assert _read_rows(recovered) == _read_rows(reference)


def test_recovered_prefix_is_nonempty_and_bounded(workload, tmp_path):
    """Sanity on the fixture contract: the verifier's universe works.

    An uninterrupted WAL run recovers its complete ledger (the prefix
    restriction drops nothing), so equivalence checking is exact — the
    crash tests above then only ever weaken it by the lost tail.
    """
    graph, stream, reference = workload
    root = tmp_path / "root-full"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--wal-dir",
            str(root),
            "--snapshot-interval",
            "15",
            "--no-wal-gc",
        ]
    ) == 0
    recovered = tmp_path / "recovered.csv"
    assert main(
        [
            "recover",
            str(root),
            "--verify-prefix",
            str(reference),
            "--dump-delivered",
            str(recovered),
        ]
    ) == 0
    assert _read_rows(recovered) == _read_rows(reference)


@pytest.mark.parametrize(
    "retired",
    [
        {"s_backend": "csr", "d_backend": "ring"},
        {"s_backend": "packed", "d_backend": "list"},
    ],
    ids=["csr-ring", "packed-list"],
)
def test_root_with_retired_backend_keys_still_recovers(workload, tmp_path, retired):
    """Durability roots written before S and D had one layout persist
    ``s_backend`` / ``d_backend`` in their topology.  Recovery ignores the
    retired keys — it must never treat unknown keys as an error — and
    reproduces the uninterrupted ledger, warm and cold."""
    import json

    graph, stream, reference = workload
    root = tmp_path / "root-legacy"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--wal-dir",
            str(root),
            "--snapshot-interval",
            "15",
            "--no-wal-gc",
        ]
    ) == 0
    config_path = root / "config.json"
    config = json.loads(config_path.read_text())
    assert not set(retired) & set(config)  # writers stopped emitting them
    config_path.write_text(json.dumps({**config, **retired}, indent=1))
    for extra in ([], ["--ignore-snapshots"]):
        recovered = tmp_path / f"recovered{len(extra)}.csv"
        assert main(
            [
                "recover",
                str(root),
                *extra,
                "--verify-prefix",
                str(reference),
                "--dump-delivered",
                str(recovered),
            ]
        ) == 0
        assert _read_rows(recovered) == _read_rows(reference)


@pytest.mark.parametrize(
    "delivery_shards, serving_shards",
    [
        # `--serving-mode parent --serving-shards 4`: the shard count was
        # a free option, unrelated to the delivery fan-out.
        (1, 4),
        (2, 4),
        # `--serving-mode worker` and every root since: the shard count
        # mirrored `--delivery-shards`.
        (2, 2),
    ],
    ids=["parent-mode-one-funnel", "parent-mode-sharded", "worker-mode"],
)
def test_root_with_explicit_serving_shards_recovers_same_served_rows(
    workload, tmp_path, delivery_shards, serving_shards
):
    """Durability roots written before the config was stored whole persist
    a flat ``serving_shards`` — whatever the then-free option produced.
    The shard count only ever places rows (they re-split by user hash on
    load), so such a root recovers to exactly the served rows a root
    written today recovers to — and so does today's root with its
    ``delivery_shards``, the key that now decides the count, changed."""
    import json

    from repro.durability.recover import recover

    graph, stream, _reference = workload
    root = tmp_path / "root-serving"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--ranked",
            "--query-qps",
            "20",
            "--delivery-shards",
            str(delivery_shards),
            "--wal-dir",
            str(root),
            "--snapshot-interval",
            "15",
            "--no-wal-gc",
        ]
    ) == 0
    config_path = root / "config.json"
    config = json.loads(config_path.read_text())
    assert config["delivery_shards"] == delivery_shards

    def served_rows() -> dict:
        result = recover(root)
        try:
            assert result.serving is not None
            return result.serving.dump()
        finally:
            result.close()

    today = served_rows()
    assert today  # the snapshots carried a serving component
    written_by_pr20 = {
        "k": config["detection"]["k"],
        "tau": config["detection"]["tau"],
        "num_partitions": config["cluster"]["num_partitions"],
        "transport": config["cluster"]["transport"],
        "batch_size": config["batch_size"],
        "seed": config["seed"],
        "ranked_k": config["ranked_k"],
        "delivery_batch_size": config["delivery_batch_size"],
        "adaptive": False,
        "serving": True,
        "serving_shards": serving_shards,
        "serving_k": config["serving"]["k"],
        "serving_ttl": config["serving"]["ttl"],
    }
    config_path.write_text(json.dumps(written_by_pr20, indent=1))
    assert served_rows() == today
    config_path.write_text(
        json.dumps({**config, "delivery_shards": serving_shards}, indent=1)
    )
    assert served_rows() == today


# ----------------------------------------------------------------------
# Ranked / served roots: replay ends each window the way the run did
# ----------------------------------------------------------------------


@pytest.fixture
def frozen_detection_clock(monkeypatch):
    """The consumer maps *measured* detection wall-clock into virtual
    time; pin it to zero so delivery clocks — and with them every served
    score — are a function of the stream alone (in-process runs only)."""
    from types import SimpleNamespace

    from repro.streaming import consumer

    monkeypatch.setattr(
        consumer, "time", SimpleNamespace(perf_counter=lambda: 0.0)
    )


def test_ranked_root_records_its_window_and_recovers_the_reference(
    workload, tmp_path
):
    """A ``--ranked`` run at the default delivery window writes its ranker
    and window into the root, and replay — each origin event's candidates
    through the shared ``release_window`` — rebuilds the reference
    multiset."""
    import json

    graph, stream, _unranked = workload
    root = tmp_path / "root-ranked"
    reference = tmp_path / "ranked-ref.csv"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--ranked",
            "--ranked-k",
            "1",
            "--wal-dir",
            str(root),
            "--dump-delivered",
            str(reference),
        ]
    ) == 0
    config = json.loads((root / "config.json").read_text())
    assert config["ranked_k"] == 1
    assert config["delivery_batch_size"] == 1
    recovered = tmp_path / "ranked-recovered.csv"
    assert main(
        [
            "recover",
            str(root),
            "--verify-prefix",
            str(reference),
            "--dump-delivered",
            str(recovered),
        ]
    ) == 0
    assert _read_rows(recovered) == _read_rows(reference)
    assert len(_read_rows(reference)) > 1


def test_ranked_replay_ranks_each_origin_event_like_the_live_window(tmp_path):
    """A WAL record holds ``--batch-size`` events, but the live size-1
    delivery window ranked each origin event's candidates alone — so
    replay must not rank a whole record as one window.  Two events of one
    record recommending different candidates to the same user both
    survive ``ranked_k=1``, exactly as they did live."""
    from repro.core import EdgeEvent
    from repro.core.batch import EventBatch
    from repro.durability import DurabilityManager, prepare_root
    from repro.durability.recover import recover
    from repro.graph import GraphSnapshot
    from repro.topology import TopologyConfig

    # User 0 follows 1 and 2; both act on targets 8 and 9 in one batch.
    snapshot = GraphSnapshot.from_edges([(0, 1), (0, 2)], num_nodes=10)
    root = prepare_root(
        tmp_path / "root",
        snapshot,
        TopologyConfig.from_dict(
            {"k": 2, "tau": 600.0, "num_partitions": 1, "ranked_k": 1}
        ),
    )
    manager = DurabilityManager(root)
    events = [
        EdgeEvent(0.0, 1, 8), EdgeEvent(1.0, 1, 9),
        EdgeEvent(2.0, 2, 8), EdgeEvent(3.0, 2, 9),
    ]
    manager.log_batch(EventBatch.from_events(events[:2]), 1.0)
    manager.log_batch(EventBatch.from_events(events[2:]), 3.0)
    manager.close()
    result = recover(root)
    try:
        assert sorted(row[:2] for row in result.delivered) == [(0, 8), (0, 9)]
    finally:
        result.close()


def test_warm_and_cold_recovery_serve_the_same_rows(
    workload, tmp_path, frozen_detection_clock
):
    """Snapshots stay a pure replay accelerator for the serving tier too:
    the WAL tail is merged into the recovered cache, so warm (snapshot +
    tail) and cold (full replay) end on the same served rows."""
    from repro.durability.recover import recover

    graph, stream, _reference = workload
    root = tmp_path / "root-served"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--ranked",
            "--query-qps",
            "20",
            "--wal-dir",
            str(root),
            "--snapshot-interval",
            "15",
            "--no-wal-gc",
        ]
    ) == 0
    # The run's last snapshot covers the whole log; drop the later ones —
    # the state of a run that died between snapshots (deltas only ever
    # point backwards, and --no-wal-gc kept the full log).
    snapshots = sorted((root / "snapshots").glob("snap-*"))
    assert len(snapshots) > 3
    for late in snapshots[3:]:
        shutil.rmtree(late)

    def served(use_snapshot: bool):
        result = recover(root, use_snapshot=use_snapshot)
        try:
            assert (result.snapshot_id is not None) == use_snapshot
            assert result.serving is not None
            return result.replayed_records, result.serving.dump()
        finally:
            result.close()

    warm_records, warm = served(True)
    cold_records, cold = served(False)
    assert 0 < warm_records < cold_records  # warm really replayed a tail
    assert warm and warm == cold


def test_verify_prefix_refuses_a_root_with_a_wider_delivery_window(
    workload, tmp_path, capsys
):
    """Window boundaries of a ``--delivery-batch-size > 1`` run depended
    on measured detection time and are not in the WAL: ``recover`` says so
    and ``--verify-prefix`` exits 2 instead of printing PASS or FAIL."""
    graph, stream, _reference = workload
    root = tmp_path / "root-coalesced"
    reference = tmp_path / "coalesced-ref.csv"
    assert main(
        [
            "simulate",
            str(graph),
            str(stream),
            *SIM_ARGS,
            "--ranked",
            "--delivery-batch-size",
            "64",
            "--delivery-max-wait",
            "5",
            "--wal-dir",
            str(root),
            "--dump-delivered",
            str(reference),
        ]
    ) == 0
    capsys.readouterr()
    assert main(["recover", str(root)]) == 0  # replays, with the warning
    assert "not in the WAL" in capsys.readouterr().err
    assert main(["recover", str(root), "--verify-prefix", str(reference)]) == 2
    captured = capsys.readouterr()
    assert "not reproducible" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.err
