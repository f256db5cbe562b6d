"""Assert the freshly recorded E18 numbers show real multicore speedup.

The CI ``scaling-record`` job re-runs the partition-scaling benches on a
multi-core runner and then invokes this script against the merged
``BENCH_ingest.json``: the P=4 worker-transport run on the hub-burst
workload must have been recorded on a host with at least ``--min-cores``
usable cores *and* beat the P=1 run (``speedup_vs_p1 > 1``) — the
repo's first real parallelism number (everything recorded in the original
1-core container measures transport overhead instead).

Usage::

    python benchmarks/verify_scaling_record.py \
        --results benchmarks/results/BENCH_ingest.json [--min-cores 4]

Exit status: 0 when the record holds, 1 when it regressed to <= 1x or
was recorded on too few cores, 2 when the expected rows are missing.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: The E18 configuration that must demonstrate the speedup: the
#: worker transport on the detection-heavy hub-burst workload.
RECORD_WORKLOAD = "firehose-hub-burst"
RECORD_MODE = "shm"
RECORD_PARTITIONS = 4


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        type=Path,
        default=Path("benchmarks/results/BENCH_ingest.json"),
        help="merged BENCH_ingest.json holding the fresh E18 rows",
    )
    parser.add_argument(
        "--min-cores",
        type=int,
        default=4,
        help="minimum usable cores the record must have been taken on",
    )
    args = parser.parse_args(argv)

    try:
        payload = json.loads(args.results.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {args.results}: {error}")
        return 2

    rows = [
        entry
        for entry in payload.get("results", [])
        if isinstance(entry, dict)
        and entry.get("params", {}).get("workload") == RECORD_WORKLOAD
        and entry.get("params", {}).get("mode") == RECORD_MODE
    ]
    if not rows:
        print(
            f"error: no {RECORD_MODE}/{RECORD_WORKLOAD} rows in {args.results}"
        )
        return 2

    print(f"{RECORD_WORKLOAD} ({RECORD_MODE} transport):")
    record = None
    for entry in sorted(rows, key=lambda e: e["params"].get("partitions", 0)):
        params, metrics = entry["params"], entry["metrics"]
        print(
            f"  P={params.get('partitions')}: "
            f"speedup_vs_p1={metrics.get('speedup_vs_p1')} "
            f"(cpu_count={metrics.get('cpu_count')}, "
            f"{metrics.get('events_per_sec')} ev/s)"
        )
        if params.get("partitions") == RECORD_PARTITIONS:
            record = metrics

    if record is None:
        print(f"error: no P={RECORD_PARTITIONS} row recorded")
        return 2
    cpu_count = record.get("cpu_count", 0)
    speedup = record.get("speedup_vs_p1", 0.0)
    if cpu_count < args.min_cores:
        print(
            f"FAIL: record taken on {cpu_count} usable cores "
            f"(need >= {args.min_cores}); this is not a multicore record"
        )
        return 1
    if not speedup > 1.0:
        print(
            f"FAIL: speedup_vs_p1={speedup} at P={RECORD_PARTITIONS} on "
            f"{cpu_count} cores — parallelism is not paying"
        )
        return 1
    print(
        f"OK: P={RECORD_PARTITIONS} speedup_vs_p1={speedup} on "
        f"{cpu_count} cores — real multicore speedup on record"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
