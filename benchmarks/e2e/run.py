"""E24 — one wall-clock, full-stack benchmark with a per-layer budget.

Two ways in, one measurement:

* ``run.py --workload NAME --seed N --seconds S --trace 0|1`` is one run
  (the BENCHMARK.json contract): it prints every metric by name with
  its unit, checks the outputs, and ends with one JSON line.
  ``--trace 0`` gives the end-to-end metrics, ``--trace 1`` repeats the
  run with spans on and gives the per-layer ones.
* ``run.py [--workload NAME]... [--seed N] [--repeats R] [--smoke]``
  without ``--trace`` is the suite: every workload untraced (R times)
  then traced, each as a child process running the line above, written
  to ``raw/<workload>.json`` for ``to_csv.py``.  ``--compare A/ B/``
  judges two such directories against the bounds in BENCHMARK.json.

The program under test is imported from the checkout's ``src/``.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import metrics  # noqa: E402
import verify  # noqa: E402
from workloads import NUM_USERS, UNGATED, WORKLOADS  # noqa: E402

#: ``--seconds`` sizes the input: scale 1.0 is about ten measured seconds.
NOMINAL_SECONDS = 10.0
SMOKE_SCALE = 1 / 20
SMOKE_USERS = 3_000
RAW_DIR = HERE / "raw"
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


def environment() -> dict[str, str | int]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 0,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def whole_outputs(p: harness.Pass) -> verify.Outputs:
    funnel, served = p.final_state
    return verify.Outputs(
        verify.delivered_rows(p.record.notifications),
        funnel,
        verify.served_rows(served),
    )


def check_outputs(run: metrics.Run) -> tuple[list[str], dict[str, str]]:
    """Conservation and pass agreement, then the first pass's prefix
    against the reference or twin lane.  Also returns the run's digest."""
    problems: list[str] = []
    digests = []
    for p in run.passes:
        stats, reader = p.stats, p.reader
        problems += verify.conservation(
            events_in=run.inputs.bounds[-1],
            events_logged=int(stats["durability.events_logged"]),
            events_routed=int(stats["cluster.events_routed"]),
            lost=int(
                stats["cluster.lost_events"] + stats["delivery.lost_candidates"]
            ),
            reads_raised=reader.raised if reader is not None else 0,
        )
        digests.append(verify.digest(whole_outputs(p)))
    if any(d != digests[0] for d in digests):
        problems.append(f"passes over the same input disagree: {digests}")
    record = run.passes[0].record
    prefix = record.prefix_flushes
    funnel, served = record.prefix_state
    got = verify.Outputs(
        verify.delivered_rows(
            record.notifications[: record.delivered_upto[prefix - 1]]
        ),
        funnel,
        verify.served_rows(served),
    )
    if run.workload.transport == "inprocess":
        want = verify.reference_lane(run.workload, run.inputs, prefix)
        label = f"boxed reference lane, first {prefix} flushes"
    else:
        want = verify.twin_lane(run.inputs, prefix)
        label = f"in-process twin, first {prefix} flushes"
    return problems + verify.differences(label, got, want), digests[0]


def run_single(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload[0]]
    scale = args.seconds / NOMINAL_SECONDS * (SMOKE_SCALE if args.smoke else 1.0)
    traced = bool(args.trace)
    inputs = harness.generate_inputs(
        workload, args.seed, scale, SMOKE_USERS if args.smoke else NUM_USERS
    )
    run = metrics.Run(
        workload, inputs, time.perf_counter() - PROCESS_STARTED, passes=[]
    )
    for _ in range(metrics.PASSES):
        run.passes.append(
            harness.run_pass(
                workload, inputs, traced,
                (verify.CANDIDATE_BUDGET, verify.PREFIX_SHARE),
            )
        )
    checked = time.perf_counter()
    problems, digest = check_outputs(run)
    check_s = time.perf_counter() - checked
    attempted, failed = metrics.outcome(run)
    values = metrics.per_layer(run) if traced else metrics.end_to_end(run)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    for problem in problems:
        print(f"OUTPUT CHECK FAILED: {problem}", file=sys.stderr)
    walls = [p.wall_s for p in run.passes]
    reads = sum(len(p.reader.samples) for p in run.passes if p.reader)
    print(
        f"{workload.name} seed={args.seed} scale={scale:g} traced={int(traced)}: "
        f"{run.timed_events} events x {len(walls)} passes in "
        f"{' + '.join(f'{w:.2f}' for w in walls)} s, "
        f"{len(metrics.event_latencies_ms(run))} latency samples, {reads} reads, "
        f"output check over {run.passes[0].record.prefix_flushes} flushes "
        f"in {check_s:.2f} s"
    )
    for name, entry in values.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    if args.out:
        quiet = metrics.quietest(run)
        detail = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": scale,
            "traced": traced,
            "env": environment(),
            "pass_wall_s": walls,
            "busy_s": metrics.busy_seconds(run, quiet),
            "timed_events": run.timed_events,
            "check_s": check_s,
            "prefix_flushes": run.passes[0].record.prefix_flushes,
            "digest": digest,
            "result": result,
        }
        if quiet.tracer is not None:
            detail["spans"] = len(quiet.tracer.spans)
            detail["stages"] = {
                name: {"total_s": total, "self_s": own, "calls": calls}
                for name, (total, own, calls) in metrics.span_table(
                    quiet.tracer.spans
                ).items()
            }
        Path(args.out).write_text(json.dumps(detail, indent=1) + "\n")
    reap_resource_tracker()
    print(json.dumps(result))
    return 0 if not problems else 1


def reap_resource_tracker() -> None:
    """Stop and wait for the helper process ``multiprocessing
    .shared_memory`` started behind the shm transport's back.

    It would exit by itself the moment this process does, but a run must
    have waited for every process it started, and the interpreter offers
    no public call for this one.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def child_run(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> dict:
    """One run in a child process (its own peak RSS, its own workers).

    The child leads a fresh session so that afterwards the whole process
    group can be checked for survivors.
    """
    with tempfile.TemporaryDirectory(dir=_tmp_root()) as scratch:
        out = Path(scratch) / "detail.json"
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(out),
        ] + (["--smoke"] if smoke else [])
        child = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, start_new_session=True
        )
        stdout, _ = child.communicate()
        survivors = _group_alive(child.pid)
        if not out.exists():
            raise RuntimeError(
                f"{workload} (trace {trace}) exited {child.returncode} "
                f"without a result:\n{stdout}"
            )
        detail = json.loads(out.read_text())
    detail["exit_code"] = child.returncode
    detail["worker_survivors"] = survivors
    return detail


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes in process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, _ppid, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except OSError:  # exited while we were looking
            continue
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _group_alive(pgid: int, patience: float = 3.0) -> bool:
    """Whether anything of the child's process group is still running
    once multiprocessing's resource tracker (which exits when its pipe
    closes, just after the child) has had a moment to go."""
    deadline = time.monotonic() + patience
    while _group_members(pgid):
        if time.monotonic() > deadline:
            return True
        time.sleep(0.05)
    return False


def _shm_segments() -> set[str]:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _tmp_root() -> Path:
    harness.TMP_ROOT.mkdir(parents=True, exist_ok=True)
    return harness.TMP_ROOT


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_metric_table(title: str, rows: list[tuple[str, list[float], str]]) -> None:
    print(f"\n{title}")
    for name, values, unit in rows:
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / q2 if q2 else 0.0
        print(
            f"  {name:34s} median {q2:>14.6g} {unit:9s} "
            f"[{q1:.6g} .. {q3:.6g}] spread {spread:6.1%} n={len(values)}"
        )


def run_suite(args: argparse.Namespace) -> int:
    names = args.workload or list(WORKLOADS)
    if args.smoke and not args.out_dir:
        return _smoke_in_scratch(args)
    out_dir = Path(args.out_dir) if args.out_dir else RAW_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    shm_before = _shm_segments()
    problems: list[str] = []
    suite: dict[str, dict] = {}
    try:
        for name in names:
            untraced = [
                child_run(name, args.seed, args.seconds, 0, args.smoke)
                for _ in range(args.repeats)
            ]
            traced = child_run(name, args.seed, args.seconds, 1, args.smoke)
            suite[name] = {
                "workload": name,
                "why": WORKLOADS[name].why,
                "untraced": untraced,
                "traced": traced,
            }
            for detail in untraced + [traced]:
                if detail["exit_code"] or not detail["result"]["correct"]:
                    problems.append(f"{name}: output check failed")
                if detail["result"]["failed"]:
                    problems.append(
                        f"{name}: {detail['result']['failed']} operations failed"
                    )
                if detail["worker_survivors"]:
                    problems.append(f"{name}: a worker process outlived the run")
            metric_names = untraced[0]["result"]["metrics"]
            print_metric_table(
                f"{name} — end to end ({args.repeats} untraced runs, seed {args.seed})",
                [
                    (
                        metric,
                        [d["result"]["metrics"][metric]["value"] for d in untraced],
                        metric_names[metric]["unit"],
                    )
                    for metric in metric_names
                ],
            )
            print_metric_table(
                f"{name} — per layer (1 traced run)",
                [
                    (metric, [entry["value"]], entry["unit"])
                    for metric, entry in traced["result"]["metrics"].items()
                ],
            )
            untraced_wall = statistics.median(d["busy_s"] for d in untraced)
            print(
                f"  traced busy {traced['busy_s']:.3f} s vs untraced median "
                f"{untraced_wall:.3f} s: ratio "
                f"{traced['busy_s'] / untraced_wall - 1:+.1%}"
            )
        problems += cross_checks(suite)
        for name, entry in suite.items():
            (out_dir / f"{name}.json").write_text(json.dumps(entry, indent=1) + "\n")
    finally:
        leaked = _shm_segments() - shm_before
        if leaked:
            problems.append(f"/dev/shm segments outlived the run: {sorted(leaked)}")
        leftovers = [p.name for p in harness.TMP_ROOT.glob("wal-*")]
        if leftovers:
            problems.append(f"temp WAL roots outlived the run: {leftovers}")
    if args.smoke:
        problems += self_check(suite)
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"\n{'FAILED' if problems else 'ok'}: {len(suite)} workloads, raw in {out_dir}")
    return 1 if problems else 0


def _smoke_in_scratch(args: argparse.Namespace) -> int:
    """The smoke suite keeps nothing: its raw files go to a scratch
    directory that is gone before the leak check looks."""
    with tempfile.TemporaryDirectory(dir=_tmp_root(), prefix="smoke-") as scratch:
        args.out_dir = scratch
        return run_suite(args)


def cross_checks(suite: dict[str, dict]) -> list[str]:
    """hub_burst and fleet_shm differ only in the wire: equal outputs."""
    if not {"hub_burst", "fleet_shm"} <= suite.keys():
        return []
    problems = []
    hub, fleet = suite["hub_burst"]["traced"], suite["fleet_shm"]["traced"]
    if hub["digest"] != fleet["digest"]:
        problems.append(
            f"hub_burst and fleet_shm outputs differ at the same seed: "
            f"{hub['digest']} vs {fleet['digest']}"
        )
    delta = sum(
        fleet["stages"][stage]["total_s"] - hub["stages"][stage]["total_s"]
        for stage in ("cluster.submit", "cluster.gather")
    )
    suite["fleet_shm"]["cluster.wire_delta_s"] = delta
    print(
        f"\nhub_burst == fleet_shm outputs: {hub['digest'] == fleet['digest']}; "
        f"cluster.wire_delta_s = {delta:.3f} s "
        f"(fleet_shm submit+gather minus hub_burst's)"
    )
    return problems


def self_check(suite: dict[str, dict]) -> list[str]:
    """Exactly the declared metric names, each with a unit, well-formed."""
    contract = load_contract()
    problems = []
    for kind, key in (("end_to_end", "untraced"), ("per_layer", "traced")):
        declared = {m["name"]: m["unit"] for m in contract[kind]}
        for name, entry in suite.items():
            runs = entry[key] if isinstance(entry[key], list) else [entry[key]]
            for detail in runs:
                emitted = detail["result"]["metrics"]
                if set(emitted) != set(declared):
                    problems.append(
                        f"{name}: {kind} names differ from BENCHMARK.json: "
                        f"{sorted(set(emitted) ^ set(declared))}"
                    )
                for metric, value in emitted.items():
                    if not NAME_PATTERN.fullmatch(metric):
                        problems.append(f"{name}: bad metric name {metric!r}")
                    if value.get("unit") != declared.get(metric):
                        problems.append(
                            f"{name}: {metric} unit {value.get('unit')!r} "
                            f"is not the declared {declared.get(metric)!r}"
                        )
    if {w["name"] for w in contract["workloads"]} != set(WORKLOADS) - set(UNGATED):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    return problems


# ----------------------------------------------------------------------
# Comparing two sets of runs
# ----------------------------------------------------------------------


def compare(dir_a: str, dir_b: str) -> int:
    """Per (workload, end-to-end metric): both sets' medians and
    quartiles, and whether B is worse than A by more than the bound."""
    contract = {m["name"]: m for m in load_contract()["end_to_end"]}
    worse_anywhere = False
    for path_a in sorted(Path(dir_a).glob("*.json")):
        path_b = Path(dir_b) / path_a.name
        if not path_b.exists():
            continue
        runs_a = json.loads(path_a.read_text())["untraced"]
        runs_b = json.loads(path_b.read_text())["untraced"]
        print(f"\n{path_a.stem}: A n={len(runs_a)}, B n={len(runs_b)}")
        for name, spec in contract.items():
            a = [d["result"]["metrics"][name]["value"] for d in runs_a]
            b = [d["result"]["metrics"][name]["value"] for d in runs_b]
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            change = (b2 - a2) / a2
            worse = change if spec["better"] == "lower" else -change
            spread = max((a3 - a1) / a2, (b3 - b1) / b2)
            if worse > spec["bound"]:
                verdict, worse_anywhere = "WORSE", True
            elif spread > spec["bound"] and name != "setup_s":
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "ok"
            print(
                f"  {name:18s} A {a2:>12.6g} [{a1:.6g} .. {a3:.6g}]  "
                f"B {b2:>12.6g} [{b1:.6g} .. {b3:.6g}]  "
                f"change {change:+7.1%} spread {spread:6.1%} "
                f"bound {spec['bound']:.0%}  {verdict}"
            )
    return 1 if worse_anywhere else 0


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="workload to run (repeatable in suite mode; default: all)",
    )
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--seconds", type=float, default=NOMINAL_SECONDS,
        help="nominal measured seconds; sizes the generated input",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="one run: 0 = end-to-end metrics, 1 = per-layer metrics",
    )
    parser.add_argument("--out", help="one run: also write its details here")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="suite: untraced runs per workload",
    )
    parser.add_argument("--out-dir", help=f"suite: raw directory (default {RAW_DIR})")
    parser.add_argument(
        "--smoke", action="store_true",
        help="1/20 size on a 5k-user graph; the suite also self-checks "
        "metric names against BENCHMARK.json and looks for leaks",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return run_single(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
