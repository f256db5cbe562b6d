"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figure1`` — replay the paper's worked example;
* ``generate-graph`` — write a synthetic follow-graph snapshot (.npz);
* ``generate-stream`` — write a temporally-correlated event stream (.csv);
* ``run`` — replay a stream file through an engine built from a snapshot
  file, printing detection statistics and top candidates;
* ``simulate`` — run the end-to-end queue topology and print the latency
  breakdown (the paper's 7 s / 15 s experiment); ``--query-qps`` adds
  pull-side point-query load against a live serving cache; ``--wal-dir``
  enables the durable state tier (write-ahead event log plus, with
  ``--snapshot-interval``, incremental snapshots);
* ``recover`` — rebuild a crashed ``simulate --wal-dir`` deployment from
  its durability root (latest snapshot + WAL tail replay) and optionally
  verify the delivered multiset against an uninterrupted reference run;
* ``serve`` — materialize a stream into the serving cache and answer
  ``GET <user>`` point queries over a TCP front-end;
* ``explain`` — compile a catalog motif (or a motif text file) and print
  the detection kernel's stages it configures;
* ``analyze`` — structural fingerprint of a snapshot file.

Every command is deterministic given its ``--seed``.
"""

from __future__ import annotations

import argparse
import asyncio
import csv
import sys
from collections import Counter as CollectionsCounter
from pathlib import Path

from repro.analysis import analyze_structure
from repro.cluster import TRANSPORTS, ClusterConfig
from repro.cluster.shm import sweep_stale_segments
from repro.core import ActionType, DetectionParams, EdgeEvent, MotifEngine
from repro.gen import (
    BurstSpec,
    StreamConfig,
    TwitterGraphConfig,
    generate_event_stream,
    generate_follow_graph,
    generate_follow_graph_chunked,
)
from repro.serving import ServingCacheConfig, ServingFrontend
from repro.graph import GraphSnapshot
from repro.motif import MOTIF_CATALOG, compile_motif, parse_motif
from repro.ops import ControllerConfig
from repro.durability import recover as durability_recover
from repro.streaming import StreamingTopology
from repro.topology import DEFAULTS, FIELD_HELP, TopologyConfig, build_deployment


def _flag(parser, name: str, default, help: str | None = None) -> None:
    """A valued flag typed by its default (``None`` = an optional float),
    so that default is read off a config instead of being typed again."""
    kind = float if default is None else type(default)
    parser.add_argument(name, type=kind, default=default, help=help)


def _detection_flags(parser) -> None:
    _flag(parser, "--k", DEFAULTS.detection.k)
    _flag(parser, "--tau", DEFAULTS.detection.tau)


def build_arg_parser() -> argparse.ArgumentParser:
    """The full CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online motif detection (Gupta et al., VLDB 2014) — reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("figure1", help="replay the paper's Figure 1 example")

    gen_graph = commands.add_parser("generate-graph", help="write a synthetic follow graph")
    gen_graph.add_argument("output", type=Path, help="output .npz path")
    gen_graph.add_argument("--users", type=int, default=10_000)
    gen_graph.add_argument("--mean-followings", type=float, default=20.0)
    gen_graph.add_argument("--seed", type=int, default=0)
    gen_graph.add_argument(
        "--chunked",
        action="store_true",
        help="vectorized chunked generation (no boxed edge list) — the "
        "path that scales to multi-million-user graphs; statistically "
        "the same family as the default path but a different RNG stream",
    )

    gen_stream = commands.add_parser("generate-stream", help="write an event stream CSV")
    gen_stream.add_argument("output", type=Path, help="output .csv path")
    gen_stream.add_argument("--users", type=int, default=10_000)
    gen_stream.add_argument("--duration", type=float, default=3_600.0)
    gen_stream.add_argument("--rate", type=float, default=10.0)
    gen_stream.add_argument("--bursts", type=int, default=2)
    gen_stream.add_argument("--burst-actors", type=int, default=100)
    gen_stream.add_argument("--seed", type=int, default=0)

    run = commands.add_parser("run", help="replay a stream through the engine")
    run.add_argument("graph", type=Path, help="snapshot .npz from generate-graph")
    run.add_argument("stream", type=Path, help="event .csv from generate-stream")
    _detection_flags(run)
    run.add_argument("--top", type=int, default=5, help="top candidates to print")
    _flag(
        run,
        "--batch-size",
        DEFAULTS.batch_size,
        "columnar micro-batch size for ingestion (only a size: 1 = "
        "one-event batches through the same path)",
    )

    simulate = commands.add_parser("simulate", help="end-to-end latency simulation")
    simulate.add_argument("graph", type=Path)
    simulate.add_argument("stream", type=Path)
    _detection_flags(simulate)
    _flag(simulate, "--partitions", DEFAULTS.cluster.num_partitions)
    for name, text in FIELD_HELP.items():
        _flag(simulate, "--" + name.replace("_", "-"), getattr(DEFAULTS, name), text)
    simulate.add_argument(
        "--transport",
        choices=TRANSPORTS,
        default=DEFAULTS.cluster.transport,
        help="broker-to-partition transport: inprocess = direct calls "
        "with simulated latency (default), shm = one multiprocessing "
        "worker per partition (real parallelism), fed over zero-copy "
        "shared-memory ring buffers where the host has /dev/shm and over "
        "pickled queues where it has not",
    )
    simulate.add_argument(
        "--ranked",
        action="store_true",
        help="ranked delivery: buffer candidates per recipient over the "
        "coalescing window and release only each user's top-k into the "
        "funnel",
    )
    _flag(
        simulate,
        "--ranked-k",
        ServingCacheConfig().k,
        "per-user candidates released per coalescing window under --ranked",
    )
    simulate.add_argument(
        "--adaptive",
        action="store_true",
        help="enable the adaptive control plane: a controller ticking in "
        "virtual time retunes --batch-size/--max-batch-wait and the "
        "delivery window from the live backlog signal (the static knob "
        "values above become its starting point only), and escalates "
        "to admission shedding past --slo-p99",
    )
    _flag(
        simulate,
        "--slo-p99",
        ControllerConfig().slo_p99,
        "end-to-end p99 SLO in virtual seconds for --adaptive; past "
        "it (with the escalation ladder saturated) the controller sheds "
        "via admission control; omit to never shed",
    )
    _flag(
        simulate,
        "--controller-interval",
        ControllerConfig().interval,
        "virtual seconds between adaptive-controller ticks",
    )
    _flag(
        simulate,
        "--serving-ttl",
        ServingCacheConfig().ttl,
        "serving-cache TTL in virtual seconds: users whose newest "
        "entry is older than this are evicted before the cache grows "
        "(omit = keep everything)",
    )
    simulate.add_argument(
        "--wal-dir",
        type=Path,
        default=None,
        help="enable the durable state tier: write the static graph + "
        "run config into this durability root and append every ingested "
        "event batch to a segmented write-ahead log under it (see the "
        "recover command)",
    )
    simulate.add_argument(
        "--no-wal-gc",
        action="store_true",
        help="keep WAL segments that snapshots already cover (needed to "
        "recover --ignore-snapshots from sequence zero)",
    )
    simulate.add_argument(
        "--dump-delivered",
        type=Path,
        default=None,
        help="write every delivered notification as CSV (recipient, "
        "candidate, created_at, delivered_at) — the reference artifact "
        "the recover command verifies against",
    )

    recover = commands.add_parser(
        "recover",
        help="rebuild a crashed simulate --wal-dir deployment from its "
        "durability root",
    )
    recover.add_argument(
        "root", type=Path, help="the --wal-dir of the crashed run"
    )
    recover.add_argument(
        "--ignore-snapshots",
        action="store_true",
        help="cold-start: replay the full surviving WAL instead of "
        "warm-starting from the latest snapshot",
    )
    recover.add_argument(
        "--dump-delivered",
        type=Path,
        default=None,
        help="write the recovered delivered ledger as CSV (same schema "
        "as simulate --dump-delivered)",
    )
    recover.add_argument(
        "--verify-prefix",
        type=Path,
        default=None,
        help="delivered CSV from an uninterrupted reference run; checks "
        "that the recovered (recipient, candidate, created_at) multiset "
        "equals the reference restricted to the events the WAL retained "
        "(exit 1 on mismatch; exact under --hop-median 0; exit 2 for a "
        "root that ran --delivery-batch-size > 1 or --adaptive, whose "
        "window boundaries the WAL does not record)",
    )

    serve = commands.add_parser(
        "serve",
        help="materialize a stream into the serving cache, then answer "
        "point queries over a TCP front-end",
    )
    serve.add_argument("graph", type=Path)
    serve.add_argument("stream", type=Path)
    _detection_flags(serve)
    _flag(serve, "--partitions", DEFAULTS.cluster.num_partitions)
    _flag(serve, "--seed", DEFAULTS.seed, FIELD_HELP["seed"])
    _flag(serve, "--topk", ServingCacheConfig().k, "materialized entries per user")
    _flag(
        serve,
        "--serving-shards",
        DEFAULTS.delivery_shards,
        "serving-cache shards (splitmix64 by user), each written by its "
        "own delivery-funnel shard",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (0 = ephemeral, printed once bound)",
    )
    serve.add_argument(
        "--smoke-queries",
        type=int,
        default=None,
        help="self-test mode: issue this many zipf GETs over loopback, "
        "print the stats line, and exit instead of serving forever",
    )

    explain = commands.add_parser("explain", help="print a motif's compiled kernel")
    explain.add_argument(
        "motif",
        help=f"catalog name ({', '.join(sorted(MOTIF_CATALOG))}) or a .motif text file",
    )
    explain.add_argument("--k", type=int, default=None)
    explain.add_argument("--tau", type=float, default=None)

    analyze = commands.add_parser("analyze", help="structural fingerprint of a graph")
    analyze.add_argument("graph", type=Path)

    return parser


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------

def _cmd_figure1(args: argparse.Namespace, out) -> int:
    follows = [(0, 3), (1, 3), (1, 4), (2, 4)]
    snapshot = GraphSnapshot.from_edges(follows, num_nodes=8)
    engine = MotifEngine.from_snapshot(snapshot, DetectionParams(k=2, tau=600.0))
    engine.process(EdgeEvent(0.0, 3, 6))
    recs = engine.process(EdgeEvent(10.0, 4, 6))
    print("B1->C2: no recommendation (top half incomplete)", file=out)
    for rec in recs:
        print(
            f"B2->C2: recommend C2(id {rec.candidate}) to A2(id {rec.recipient}) "
            f"via B's {list(rec.via)}",
            file=out,
        )
    return 0


def _cmd_generate_graph(args: argparse.Namespace, out) -> int:
    config = TwitterGraphConfig(
        num_users=args.users,
        mean_followings=args.mean_followings,
        seed=args.seed,
    )
    if args.chunked:
        snapshot = generate_follow_graph_chunked(config)
    else:
        snapshot = generate_follow_graph(config)
    snapshot.save(args.output)
    print(
        f"wrote {snapshot.num_users} users / {snapshot.num_edges} edges "
        f"to {args.output}",
        file=out,
    )
    return 0


def _cmd_generate_stream(args: argparse.Namespace, out) -> int:
    bursts = tuple(
        BurstSpec(
            target=args.users - 1 - i,
            start=args.duration * (i + 0.5) / (args.bursts + 1),
            duration=args.duration / (args.bursts + 2),
            num_actors=args.burst_actors,
        )
        for i in range(args.bursts)
    )
    events = generate_event_stream(
        StreamConfig(
            num_users=args.users,
            duration=args.duration,
            background_rate=args.rate,
            bursts=bursts,
            seed=args.seed,
        )
    )
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["created_at", "actor", "target", "action"])
        for event in events:
            writer.writerow(
                [f"{event.created_at:.6f}", event.actor, event.target, event.action.value]
            )
    print(f"wrote {len(events)} events to {args.output}", file=out)
    return 0


def _load_stream(path: Path) -> list[EdgeEvent]:
    events: list[EdgeEvent] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            events.append(
                EdgeEvent(
                    float(row["created_at"]),
                    int(row["actor"]),
                    int(row["target"]),
                    ActionType(row["action"]),
                )
            )
    return events


def _cmd_run(args: argparse.Namespace, out) -> int:
    snapshot = GraphSnapshot.load(args.graph)
    events = _load_stream(args.stream)
    engine = MotifEngine.from_snapshot(
        snapshot, DetectionParams(k=args.k, tau=args.tau)
    )
    recs = engine.process_stream(events, batch_size=args.batch_size)
    latency = engine.stats.query_latency.snapshot()
    print(f"events processed : {engine.stats.events_processed}", file=out)
    print(f"raw candidates   : {len(recs)}", file=out)
    print(
        f"query latency    : p50={latency.get('p50', 0) * 1e3:.3f}ms "
        f"p99={latency.get('p99', 0) * 1e3:.3f}ms",
        file=out,
    )
    top = CollectionsCounter(rec.candidate for rec in recs).most_common(args.top)
    for candidate, count in top:
        print(f"  candidate {candidate}: {count} raw recommendations", file=out)
    return 0


def _write_delivered(path: Path, rows: list, out) -> None:
    """Delivered-ledger CSV; ``repr`` floats round-trip bit-exactly."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["recipient", "candidate", "created_at", "delivered_at"])
        for recipient, candidate, created_at, delivered_at in rows:
            writer.writerow(
                [recipient, candidate, repr(created_at), repr(delivered_at)]
            )
    print(f"wrote {len(rows)} delivered rows to {path}", file=out)


class _UsageError(Exception):
    """A bad flag value, reported as ``error: --flag ...`` with exit 2."""


#: Config fields whose flag is not their own spelling.
_FLAG_OF = {"num_partitions": "--partitions", "interval": "--controller-interval"}


def _checked(make, args: argparse.Namespace, **flag_of: str) -> TopologyConfig:
    """``make(args)``, validated before any side effect — no root
    directory written, no worker spawned.  Config errors lead with the
    offending field's name; its flag is spelled the same unless
    :data:`_FLAG_OF` (or the command's own *flag_of*) says otherwise."""
    try:
        return make(args)
    except ValueError as error:
        field, _, rest = str(error).partition(" ")
        default = _FLAG_OF.get(field, "--" + field.replace("_", "-"))
        raise _UsageError(f"{flag_of.get(field, default)} {rest}") from None


def _simulate_config(args: argparse.Namespace) -> TopologyConfig:
    if args.slo_p99 is not None and not args.adaptive:
        raise ValueError("slo_p99 requires --adaptive")
    if args.snapshot_interval is not None and args.wal_dir is None:
        raise ValueError("snapshot_interval requires --wal-dir")
    controller = serving = None
    if args.adaptive:
        controller = ControllerConfig(
            interval=args.controller_interval, slo_p99=args.slo_p99
        )
    if args.query_qps is not None:
        serving = ServingCacheConfig(
            k=args.ranked_k if args.ranked else ServingCacheConfig().k,
            ttl=args.serving_ttl,
        )
    return TopologyConfig(
        detection=DetectionParams(k=args.k, tau=args.tau),
        cluster=ClusterConfig(num_partitions=args.partitions, transport=args.transport),
        controller=controller,
        serving=serving,
        ranked_k=args.ranked_k if args.ranked else None,
        wal_gc=not args.no_wal_gc,
        **{name: getattr(args, name) for name in FIELD_HELP},
    )


def _cmd_simulate(args: argparse.Namespace, out) -> int:
    config = _checked(_simulate_config, args)
    snapshot = GraphSnapshot.load(args.graph)
    events = _load_stream(args.stream)
    with build_deployment(config, snapshot, wal_dir=args.wal_dir) as deployment:
        topology = StreamingTopology.over(deployment, snapshot.num_users)
        result = topology.run(events)
        _report_simulation(topology, result, out)
    if args.dump_delivered is not None:
        rows = [
            (
                n.recommendation.recipient,
                n.recommendation.candidate,
                n.recommendation.created_at,
                n.delivered_at,
            )
            for n in result.notifications
        ]
        _write_delivered(args.dump_delivered, rows, out)
    return 0


def _report_simulation(topology: StreamingTopology, result, out) -> None:
    summary = result.breakdown.summary()
    total = summary.get("total", {})
    print(f"events ingested  : {result.events_ingested}", file=out)
    print(f"notifications    : {len(result.notifications)}", file=out)
    if total.get("count"):
        print(
            f"end-to-end       : median={total['p50']:.1f}s p99={total['p99']:.1f}s "
            "(paper: ~7s / ~15s)",
            file=out,
        )
        print(f"queue share      : {result.queue_share():.1%}", file=out)
    if topology.controller is not None:
        print(f"control plane    : {topology.controller.describe()}", file=out)
    if topology.query_load is not None:
        read = summary.get("serving:read", {})
        print(
            f"serving reads    : {topology.query_load.queries_issued} queries, "
            f"hit rate {topology.query_load.hit_rate:.1%}, "
            f"p50={read.get('p50', 0.0) * 1e6:.0f}us "
            f"p99={read.get('p99', 0.0) * 1e6:.0f}us (wall clock)",
            file=out,
        )
        print(
            f"serving cache    : {topology.serving.users_cached} users "
            f"materialized, {topology.serving.bytes_per_user():.0f} bytes/user",
            file=out,
        )
    if topology.durability is not None:
        stats = topology.durability.stats()
        print(
            f"durability       : {int(stats['wal_records'])} WAL records "
            f"({int(stats['wal_bytes'])} bytes), "
            f"{int(stats['snapshot_count'])} snapshots, "
            f"lag {int(stats['snapshot_lag_records'])} records",
            file=out,
        )


def _cmd_recover(args: argparse.Namespace, out) -> int:
    # A crashed run's shm segments outlive it (kill -9 runs no cleanup);
    # reclaim them along with its state.
    reclaimed = sweep_stale_segments()
    if reclaimed:
        print(f"reclaimed        : {reclaimed} stale shm segments", file=out)
    result = durability_recover(
        args.root, use_snapshot=not args.ignore_snapshots
    )
    try:
        origin = result.snapshot_id or "WAL start"
        print(
            f"recovered from   : {origin} "
            f"(WAL seq >= {result.wal_start_seq})",
            file=out,
        )
        print(
            f"replayed         : {result.replayed_records} records / "
            f"{result.replayed_events} events",
            file=out,
        )
        print(f"delivered ledger : {len(result.delivered)} rows", file=out)
        if args.dump_delivered is not None:
            _write_delivered(args.dump_delivered, result.delivered, out)
        if not result.deployment.config.windows_reproducible:
            print(
                "warning: this root ran with a delivery window wider than "
                "one candidate batch (--delivery-batch-size > 1 or "
                "--adaptive); its window boundaries depended on measured "
                "detection time and are not in the WAL, so the ledger above "
                "was replayed one origin event per window and only "
                "approximates the crashed run's",
                file=sys.stderr,
            )
            if args.verify_prefix is not None:
                print(
                    "error: --verify-prefix cannot judge a root whose "
                    "delivery windows are not reproducible",
                    file=sys.stderr,
                )
                return 2
        if args.verify_prefix is not None:
            return _verify_prefix(args.verify_prefix, result, out)
        return 0
    finally:
        result.close()


def _verify_prefix(reference: Path, result, out) -> int:
    """Delivered-multiset equivalence against an uninterrupted run.

    The recovered state covers exactly the events the WAL retained (a
    crash legitimately loses the un-flushed tail), so the reference
    ledger is first restricted to rows created by those events; within
    that prefix the (recipient, candidate, created_at) multisets must
    match exactly.  Timestamps compare as ``repr`` strings — bit-exact,
    no tolerance.
    """
    universe = {repr(float(t)) for t in result.event_timestamps}
    ref: CollectionsCounter = CollectionsCounter()
    dropped = 0
    with open(reference, newline="") as handle:
        for row in csv.DictReader(handle):
            key = (
                int(row["recipient"]),
                int(row["candidate"]),
                row["created_at"],
            )
            if row["created_at"] in universe:
                ref[key] += 1
            else:
                dropped += 1
    got: CollectionsCounter = CollectionsCounter(
        (recipient, candidate, repr(created_at))
        for recipient, candidate, created_at, _delivered_at in result.delivered
    )
    print(
        f"verify           : reference rows in recovered prefix: "
        f"{sum(ref.values())} (beyond the WAL tail: {dropped})",
        file=out,
    )
    if got == ref:
        print("verify           : PASS - delivered multisets equal", file=out)
        return 0
    missing = ref - got
    extra = got - ref
    print(
        f"verify           : FAIL - {sum(missing.values())} missing, "
        f"{sum(extra.values())} unexpected",
        file=sys.stderr,
    )
    for key, count in list(missing.items())[:5]:
        print(f"  missing {count}x {key}", file=sys.stderr)
    for key, count in list(extra.items())[:5]:
        print(f"  unexpected {count}x {key}", file=sys.stderr)
    return 1


def _cmd_serve(args: argparse.Namespace, out) -> int:
    """Materialize a stream into the serving cache, then answer queries.

    The write path is the ranked topology ``simulate`` runs, built by the
    same function; once the stream has been folded in, the asyncio
    front-end answers ``GET <user> [k]`` point lookups.  ``--smoke-queries
    N`` runs a loopback self-test instead of serving forever — the CI
    smoke mode.
    """
    config = _checked(
        _serve_config, args, ranked_k="--topk", delivery_shards="--serving-shards"
    )
    snapshot = GraphSnapshot.load(args.graph)
    events = _load_stream(args.stream)
    with build_deployment(config, snapshot) as deployment:
        StreamingTopology.over(deployment).run(events)
        cache = deployment.serving
        print(
            f"materialized {cache.users_cached} users "
            f"({cache.bytes_per_user():.0f} bytes/user) from {len(events)} events",
            file=out,
        )
        try:
            return asyncio.run(
                _serve_frontend(cache, snapshot.num_users, args, out)
            )
        except KeyboardInterrupt:
            return 0


def _serve_config(args: argparse.Namespace) -> TopologyConfig:
    """The ranked topology ``simulate`` runs, one cache shard per funnel
    shard, micro-batched (nobody reads latency off a materialization)."""
    return TopologyConfig(
        detection=DetectionParams(k=args.k, tau=args.tau),
        cluster=ClusterConfig(num_partitions=args.partitions),
        serving=ServingCacheConfig(k=args.topk),
        seed=args.seed,
        batch_size=16,
        delivery_batch_size=64,
        delivery_shards=args.serving_shards,
        ranked_k=args.topk,
    )


async def _serve_frontend(
    cache, num_users: int, args: argparse.Namespace, out
) -> int:
    """Bind the TCP front-end; self-test (``--smoke-queries``) or serve."""
    import json

    frontend = ServingFrontend(cache)
    host, port = await frontend.start(args.host, args.port)
    print(f"serving on {host}:{port}", file=out)
    try:
        if args.smoke_queries is None:
            await asyncio.Event().wait()  # serve until interrupted
            return 0
        from repro.gen.zipf import ZipfSampler
        from repro.util.rng import make_rng

        sampler = ZipfSampler(num_users, 1.1, make_rng(args.seed, "serve-smoke"))
        reader, writer = await asyncio.open_connection(host, port)
        hits = 0
        for _ in range(args.smoke_queries):
            writer.write(f"GET {sampler.sample()}\n".encode())
            await writer.drain()
            reply = json.loads(await reader.readline())
            hits += bool(reply.get("recommendations"))
        writer.write(b"STATS\n")
        await writer.drain()
        stats = json.loads(await reader.readline())
        writer.write(b"QUIT\n")
        await writer.drain()
        writer.close()
        await writer.wait_closed()
        print(
            f"smoke: {args.smoke_queries} loopback queries, {hits} hits, "
            f"server saw {stats['queries_served']:.0f}",
            file=out,
        )
        return 0
    finally:
        await frontend.stop()


def _cmd_explain(args: argparse.Namespace, out) -> int:
    if args.motif in MOTIF_CATALOG:
        kwargs = {}
        if args.k is not None:
            kwargs["k"] = args.k
        if args.tau is not None:
            kwargs["tau"] = args.tau
        spec = MOTIF_CATALOG[args.motif](**kwargs)
    else:
        path = Path(args.motif)
        if not path.exists():
            print(
                f"error: {args.motif!r} is neither a catalog motif "
                f"({', '.join(sorted(MOTIF_CATALOG))}) nor a file",
                file=sys.stderr,
            )
            return 2
        spec = parse_motif(path.read_text())
    print(spec.describe(), file=out)
    print(file=out)
    print(compile_motif(spec).explain(), file=out)
    return 0


def _cmd_analyze(args: argparse.Namespace, out) -> int:
    snapshot = GraphSnapshot.load(args.graph)
    print(analyze_structure(snapshot).describe(), file=out)
    return 0


_COMMANDS = {
    "figure1": _cmd_figure1,
    "generate-graph": _cmd_generate_graph,
    "generate-stream": _cmd_generate_stream,
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "recover": _cmd_recover,
    "serve": _cmd_serve,
    "explain": _cmd_explain,
    "analyze": _cmd_analyze,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a consumer that exited early (e.g. head).
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
