"""raw/*.json -> stage_table.csv, plus the same table printed.

One row per (workload, stage): the stage's *self* seconds in the traced
run (its spans minus the spans they enclose), that as a share of the
wall the spans must cover, and how many times it ran.  The rows of one
workload, residual included, add up to that wall — the busy time of the
flush loop, which for the closed loops is the measured wall itself.

    python benchmarks/e2e/to_csv.py [RAW_DIR] [CSV_PATH]
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Span name -> the ``src/repro`` package it times.
LAYER_ORDER = ("streaming", "durability", "cluster", "core", "graph", "delivery", "serving")


def stage_rows(entry: dict) -> list[dict]:
    """The workload's stage rows, residual and total last."""
    traced = entry["traced"]
    wall = traced["busy_s"]
    rows = []
    covered = 0.0
    stages = traced["stages"]
    for name in sorted(
        stages, key=lambda n: (LAYER_ORDER.index(n.split(".")[0]), n)
    ):
        if name == "streaming.flush":  # the per-flush root: its self time is residual
            continue
        seconds = stages[name]["self_s"]
        covered += seconds
        rows.append(
            {
                "workload": entry["workload"],
                "layer": name.split(".")[0],
                "stage": name,
                "seconds": seconds,
                "share_of_wall": seconds / wall,
                "count": stages[name]["calls"],
            }
        )
    for stage, seconds, count in (
        ("residual", wall - covered, stages["streaming.flush"]["calls"]),
        ("wall", wall, stages["streaming.flush"]["calls"]),
    ):
        rows.append(
            {
                "workload": entry["workload"],
                "layer": "harness",
                "stage": stage,
                "seconds": seconds,
                "share_of_wall": seconds / wall,
                "count": count,
            }
        )
    return rows


def main(argv: list[str]) -> int:
    raw_dir = Path(argv[1]) if len(argv) > 1 else HERE / "raw"
    csv_path = Path(argv[2]) if len(argv) > 2 else HERE / "stage_table.csv"
    entries = [json.loads(p.read_text()) for p in sorted(raw_dir.glob("*.json"))]
    if not entries:
        print(f"no raw/*.json under {raw_dir}; run run.py first", file=sys.stderr)
        return 1
    rows = [row for entry in entries for row in stage_rows(entry)]
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {**row, "seconds": f"{row['seconds']:.6f}",
                 "share_of_wall": f"{row['share_of_wall']:.4f}"}
            )
    for entry in entries:
        env = entry["traced"]["env"]
        print(
            f"\n{entry['workload']} (seed {entry['traced']['seed']}, "
            f"{entry['traced']['timed_events']} events; {env['nproc']} x "
            f"{env['cpu_model']}, Python {env['python']}, numpy {env['numpy']})"
        )
        print(f"  {'stage':26s} {'seconds':>10s} {'share':>7s} {'calls':>8s}")
        for row in rows:
            if row["workload"] == entry["workload"]:
                print(
                    f"  {row['stage']:26s} {row['seconds']:10.3f} "
                    f"{row['share_of_wall']:7.1%} {row['count']:8d}"
                )
    print(f"\nwrote {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
