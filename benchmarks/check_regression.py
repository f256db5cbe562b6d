"""Compare fresh ``BENCH_*.json`` results against a committed baseline.

The CI ``bench-smoke`` job runs the fast benchmark variants, then invokes
this script to gate the build: a metric that moved past the tolerance in
the *bad* direction fails the job.

Metric direction is inferred from the name: throughputs, speedups, and
ratios-of-goodness are better-higher; latencies and memory are
better-lower; counts and sizes (``events``, ``*_total``, ``*_bytes`` when
structural) are informational and skipped unless named below.  Because
absolute throughput/latency numbers vary wildly across machines, the
default mode compares only *relative* metrics (``speedup_*``, ``*_ratio``,
``slowdown_*``) which are machine-independent; pass ``--absolute`` to gate
everything.

Usage::

    python benchmarks/check_regression.py \
        --baseline baseline-results/ --fresh benchmarks/results/ \
        [--tolerance 0.25] [--absolute]

Exit status: 0 when no gated metric regressed, 1 otherwise, 2 when the
inputs are unusable (no overlapping records at all).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: Substrings marking a metric as better-higher / better-lower.  Checked
#: in order; first match wins.  Metrics matching neither (counts, sizes,
#: descriptive ratios like ``hot_over_cold_ratio``) are informational and
#: never gated.
HIGHER_IS_BETTER = ("events_per_sec", "speedup", "_per_sec", "throughput")
LOWER_IS_BETTER = (
    "wire_overhead",  # wall over in-process wall at the same P: smaller wins
    "frontier_",  # E20 adaptive-over-static ratios: smaller = more dominant
    "degradation",  # E21 live-over-idle read p99: smaller = less perturbed
    "cross_process_read",  # E23 attached-arena reads: smaller wins
    "bytes_per",  # E21 serving footprint / E22 WAL bytes per event
    "wal_overhead",  # E22 logged-over-unlogged ingest wall: smaller wins
    "snapshot_delta",  # E22 incremental-over-full snapshot bytes
    "_ms",
    "_us",
    "_seconds",
    "latency",
    "slowdown",
    "_bytes",
    "_mb",
)

#: Metrics that are machine-independent (comparable across hosts).
#: ``bytes_per`` qualifies because the serving cache's windows are a
#: deterministic function of the bench seed: every host materializes the
#: same users into the same capacity.
RELATIVE_MARKERS = ("speedup", "slowdown", "_ratio", "bytes_per")


def metric_direction(name: str) -> int:
    """+1 when higher is better, -1 when lower is better, 0 to skip."""
    lowered = name.lower()
    for marker in HIGHER_IS_BETTER:
        if marker in lowered:
            return 1
    for marker in LOWER_IS_BETTER:
        if marker in lowered:
            return -1
    return 0


def is_relative(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in RELATIVE_MARKERS)


def params_key(params: dict) -> str:
    """Canonical, hashable identity of one measured configuration."""
    return json.dumps(params, sort_keys=True)


def load_results(directory: Path) -> dict[str, dict[str, dict]]:
    """``{benchmark: {params-key: metrics}}`` from every BENCH_*.json."""
    out: dict[str, dict[str, dict]] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as error:
            print(f"warning: skipping unreadable {path}: {error}")
            continue
        name = payload.get("benchmark", path.stem.removeprefix("BENCH_"))
        rows = out.setdefault(name, {})
        for entry in payload.get("results", []):
            if isinstance(entry, dict) and isinstance(entry.get("params"), dict):
                rows[params_key(entry["params"])] = entry.get("metrics", {})
    return out


def compare(
    baseline: dict[str, dict[str, dict]],
    fresh: dict[str, dict[str, dict]],
    tolerance: float,
    absolute: bool,
) -> tuple[list[str], int]:
    """Return (regression messages, number of metrics compared)."""
    regressions: list[str] = []
    compared = 0
    for benchmark, base_rows in sorted(baseline.items()):
        fresh_rows = fresh.get(benchmark, {})
        for key, base_metrics in sorted(base_rows.items()):
            fresh_metrics = fresh_rows.get(key)
            if fresh_metrics is None:
                continue  # configuration not re-measured this run
            for metric, base_value in sorted(base_metrics.items()):
                direction = metric_direction(metric)
                if direction == 0 or not isinstance(base_value, (int, float)):
                    continue
                if not absolute and not is_relative(metric):
                    continue
                fresh_value = fresh_metrics.get(metric)
                if not isinstance(fresh_value, (int, float)) or base_value == 0:
                    continue
                compared += 1
                change = (fresh_value - base_value) / abs(base_value)
                regressed = (
                    change < -tolerance if direction > 0 else change > tolerance
                )
                if regressed:
                    regressions.append(
                        f"{benchmark} :: {key} :: {metric}: "
                        f"baseline={base_value} fresh={fresh_value} "
                        f"({change:+.1%}, tolerance {tolerance:.0%})"
                    )
    return regressions, compared


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="directory holding the committed BENCH_*.json baseline",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="directory holding this run's BENCH_*.json results",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional move in the bad direction (default 0.25)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="also gate machine-dependent absolute metrics "
        "(throughputs, latencies); default gates only relative ones",
    )
    args = parser.parse_args(argv)

    baseline = load_results(args.baseline)
    fresh = load_results(args.fresh)
    if not baseline:
        print(f"error: no baseline results under {args.baseline}")
        return 2
    if not fresh:
        print(f"error: no fresh results under {args.fresh}")
        return 2

    regressions, compared = compare(baseline, fresh, args.tolerance, args.absolute)
    mode = "all metrics" if args.absolute else "relative metrics only"
    print(f"compared {compared} gated metrics ({mode}, tolerance {args.tolerance:.0%})")
    if compared == 0:
        print("error: baseline and fresh results share no comparable metrics")
        return 2
    if regressions:
        print(f"{len(regressions)} regression(s):")
        for message in regressions:
            print(f"  REGRESSION: {message}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
