"""Unit tests for repro.util.timer, repro.util.memory, repro.util.rng."""

import time

import pytest

from repro.util.memory import (
    MemoryEstimate,
    format_bytes,
)
from repro.util.rng import derive_seed, make_rng
from repro.util.timer import Stopwatch, format_duration


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as watch:
            time.sleep(0.01)
        assert 0.005 < watch.elapsed < 1.0

    def test_stop_freezes_elapsed(self):
        watch = Stopwatch().start()
        first = watch.stop()
        time.sleep(0.005)
        assert watch.elapsed == first

    def test_resume_accumulates(self):
        watch = Stopwatch().start()
        time.sleep(0.005)
        watch.stop()
        watch.start()
        time.sleep(0.005)
        total = watch.stop()
        assert total >= 0.008

    def test_reset(self):
        watch = Stopwatch().start()
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0
        assert not watch.running

    def test_running_flag(self):
        watch = Stopwatch()
        assert not watch.running
        watch.start()
        assert watch.running
        watch.stop()
        assert not watch.running


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expect",
        [
            (5e-9, "5.0ns"),
            (2.5e-6, "2.5us"),
            (3.2e-3, "3.20ms"),
            (1.5, "1.50s"),
            (180.0, "3.0min"),
        ],
    )
    def test_units(self, seconds, expect):
        assert format_duration(seconds) == expect

    def test_negative(self):
        assert format_duration(-1.5) == "-1.50s"


class TestFormatBytes:
    @pytest.mark.parametrize(
        "num,expect",
        [
            (512, "512B"),
            (2048, "2.00KiB"),
            (3 * 1024**2, "3.00MiB"),
            (5 * 1024**4, "5.00TiB"),
            (2 * 1024**5, "2.00PiB"),
        ],
    )
    def test_units(self, num, expect):
        assert format_bytes(num) == expect

    def test_negative(self):
        assert format_bytes(-2048) == "-2.00KiB"


class TestMemoryEstimate:
    def test_linear_extrapolation(self):
        estimate = MemoryEstimate(measured_bytes=1_000, measured_scale=10)
        assert estimate.extrapolate(1_000) == pytest.approx(100_000)

    def test_describe_mentions_both_scales(self):
        estimate = MemoryEstimate(measured_bytes=2048, measured_scale=100)
        text = estimate.describe(1e8)
        assert "2.00KiB" in text and "1e+08" in text

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            MemoryEstimate(measured_bytes=10, measured_scale=0).extrapolate(5)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_labels_give_independent_streams(self):
        a = make_rng(42, "graph")
        b = make_rng(42, "latency")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_derive_seed_deterministic_and_label_sensitive(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_multi_label_paths(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)
