"""Unit tests for the CI benchmark regression gate."""

import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_regression",
    Path(__file__).parent.parent / "benchmarks" / "check_regression.py",
)
check_regression = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_regression)


def write_results(directory: Path, speedup: float, p99_ms: float = 1.0) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_demo.json").write_text(
        json.dumps(
            {
                "benchmark": "demo",
                "results": [
                    {
                        "params": {"cfg": "a"},
                        "metrics": {
                            "speedup_vs_batch1": speedup,
                            "p99_ms": p99_ms,
                            "events": 1000,
                        },
                    }
                ],
            }
        )
    )


class TestDirections:
    def test_metric_direction(self):
        assert check_regression.metric_direction("events_per_sec") == 1
        assert check_regression.metric_direction("speedup_vs_batch1") == 1
        assert check_regression.metric_direction("p99_ms") == -1
        assert check_regression.metric_direction("slowdown_vs_p1") == -1
        assert check_regression.metric_direction("events") == 0
        # Descriptive ratios carry no quality direction -> never gated.
        assert check_regression.metric_direction("hot_over_cold_ratio") == 0

    def test_relative_markers(self):
        assert check_regression.is_relative("speedup_vs_batch1")
        assert check_regression.is_relative("slowdown_vs_p1")
        assert not check_regression.is_relative("events_per_sec")


class TestGate:
    def test_passes_within_tolerance(self, tmp_path):
        write_results(tmp_path / "base", speedup=4.0)
        write_results(tmp_path / "fresh", speedup=3.5)
        code = check_regression.main(
            [
                "--baseline", str(tmp_path / "base"),
                "--fresh", str(tmp_path / "fresh"),
                "--tolerance", "0.25",
            ]
        )
        assert code == 0

    def test_fails_on_relative_regression(self, tmp_path):
        write_results(tmp_path / "base", speedup=4.0)
        write_results(tmp_path / "fresh", speedup=2.0)
        code = check_regression.main(
            [
                "--baseline", str(tmp_path / "base"),
                "--fresh", str(tmp_path / "fresh"),
                "--tolerance", "0.25",
            ]
        )
        assert code == 1

    def test_improvement_never_fails(self, tmp_path):
        write_results(tmp_path / "base", speedup=4.0, p99_ms=2.0)
        write_results(tmp_path / "fresh", speedup=9.0, p99_ms=0.5)
        code = check_regression.main(
            [
                "--baseline", str(tmp_path / "base"),
                "--fresh", str(tmp_path / "fresh"),
                "--absolute",
            ]
        )
        assert code == 0

    def test_absolute_mode_gates_latency(self, tmp_path):
        write_results(tmp_path / "base", speedup=4.0, p99_ms=1.0)
        write_results(tmp_path / "fresh", speedup=4.0, p99_ms=2.0)
        relative_only = check_regression.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
        )
        assert relative_only == 0  # p99 is absolute -> not gated by default
        absolute = check_regression.main(
            [
                "--baseline", str(tmp_path / "base"),
                "--fresh", str(tmp_path / "fresh"),
                "--absolute",
            ]
        )
        assert absolute == 1

    def test_missing_inputs_exit_2(self, tmp_path):
        write_results(tmp_path / "base", speedup=4.0)
        (tmp_path / "fresh").mkdir()
        code = check_regression.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
        )
        assert code == 2

    def test_unmeasured_configurations_are_skipped(self, tmp_path):
        write_results(tmp_path / "base", speedup=4.0)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "BENCH_demo.json").write_text(
            json.dumps(
                {
                    "benchmark": "demo",
                    "results": [
                        {"params": {"cfg": "b"}, "metrics": {"speedup_vs_batch1": 1.0}}
                    ],
                }
            )
        )
        # No overlapping configuration -> nothing comparable -> exit 2, so
        # a silently-empty comparison can never masquerade as a pass.
        code = check_regression.main(
            ["--baseline", str(tmp_path / "base"), "--fresh", str(fresh)]
        )
        assert code == 2
