"""Tests for the benchmark's own helpers; no workload is run.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib  # noqa: E402
import compare  # noqa: E402
from spans import LapClock, Tracer, self_check  # noqa: E402


class FakeClock:
    """Returns the given readings in order, one per call."""

    def __init__(self, readings):
        self._readings = iter(readings)

    def __call__(self) -> float:
        return float(next(self._readings))


class TestSelfTime:
    def test_nested_spans_split_duration_into_self_time(self):
        # outer [0, 10] holds a [1, 4], which holds b [2, 3], then c [5, 9].
        tracer = Tracer(FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
        with tracer.span("outer"):
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
        assert tracer.self_time("outer") == 10 - 3 - 4
        assert tracer.self_time("a") == 3 - 1
        assert tracer.self_time("b") == 1
        assert tracer.self_time("c") == 4
        assert tracer.total_time("a") == 3
        assert sum(tracer.self_time(n) for n in ("outer", "a", "b", "c")) == 10
        assert tracer.total_time("outer") == 10

    def test_scopes_and_repeated_calls_accumulate(self):
        tracer = Tracer(FakeClock([0, 2, 10, 13]))
        tracer.scope = "x"
        with tracer.span("s"):
            pass
        tracer.scope = "y"
        with tracer.span("s"):
            pass
        assert tracer.self_time("s", "x") == 2
        assert tracer.self_time("s", "y") == 3
        assert tracer.self_time("s") == 5
        assert tracer.call_count("s") == 2

    def test_a_raising_call_still_closes_its_span(self):
        tracer = Tracer(FakeClock([0, 1, 3, 4]))
        with tracer.span("outer"):
            with pytest.raises(RuntimeError), tracer.span("inner"):
                raise RuntimeError("boom")
        assert tracer.self_time("inner") == 2
        assert tracer.self_time("outer") == 2

    def test_patched_methods_and_aliases_are_traced_then_restored(self):
        class Inner:
            def work(self, x):
                return 2 * x

        class Outer:
            def __init__(self):
                self.inner = Inner()

            def forward(self, x):
                return self.inner.work(x) + 1

            __call__ = forward

        original = Outer.forward
        tracer = Tracer()
        with tracer.installed([(Outer, "forward", "outer"), (Inner, "work", "inner")]):
            assert Outer()(3) == 7  # through the __call__ alias
        assert Outer.forward is original and Outer.__call__ is original
        assert tracer.call_count("outer") == 1 and tracer.call_count("inner") == 1
        assert tracer.self_time("outer") + tracer.self_time("inner") == pytest.approx(
            tracer.total_time("outer")
        )

    def test_span_names_may_depend_on_the_call(self):
        class Bench:
            def evaluate(self, calibration=False):
                return calibration

        def name(args, kwargs):
            return "calibration" if kwargs.get("calibration") else "test"

        tracer = Tracer()
        with tracer.installed([(Bench, "evaluate", name)]):
            Bench().evaluate(calibration=True)
            Bench().evaluate()
        assert tracer.call_count("calibration") == 1
        assert tracer.call_count("test") == 1

    def test_self_check_tolerance(self):
        assert self_check(0.96, 1.0)
        assert self_check(1.04, 1.0)
        assert not self_check(0.94, 1.0)
        assert not self_check(1.0, 0.0)


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond_it(self):
        values = list(range(1000))
        assert benchlib.percentile(values, 99) == pytest.approx(np.percentile(values, 99))
        with pytest.raises(benchlib.TooFewSamples):
            benchlib.percentile(values[:999], 99)

    def test_p50_needs_twenty_samples(self):
        assert benchlib.percentile(list(range(20)), 50) == 9.5
        with pytest.raises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(19)), 50)

    def test_low_percentiles_need_ten_samples_below_them(self):
        values = list(range(500))
        assert benchlib.percentile(values, 2) == pytest.approx(np.percentile(values, 2))
        with pytest.raises(benchlib.TooFewSamples):
            benchlib.percentile(values[:499], 2)

    def test_quartiles_follow_statistics_quantiles(self):
        assert benchlib.quartiles([1, 2, 3, 4, 5]) == [1.5, 3.0, 4.5]


class TestLaps:
    def test_lap_clock_splits_work_at_calls_and_returns(self):
        class Cell:
            def step(self):
                return 1

        # start 0, step [1, 3], step [4, 8], stop 9
        clock = LapClock(FakeClock([0, 1, 3, 4, 8, 9]))
        with clock.installed([(Cell, "step", "")]):
            clock.start()
            Cell().step()
            Cell().step()
            assert clock.stop() == [1, 2, 1, 4, 1]
        assert "timed" not in Cell.step.__qualname__

    def test_best_laps_sums_the_fastest_time_of_each_position(self):
        repeats = [[1.0, 5.0, 2.0], [2.0, 3.0, 2.5], [1.5, 4.0, 1.0]]
        assert benchlib.best_laps(repeats) == 1.0 + 3.0 + 1.0

    def test_best_laps_needs_aligned_repeats(self):
        with pytest.raises(ValueError):
            benchlib.best_laps([[1.0, 2.0], [1.0]])
        with pytest.raises(benchlib.TooFewSamples):
            benchlib.best_laps([])


class TestMetricNames:
    @pytest.mark.parametrize(
        "name",
        ["setup_s", "core.bnn.popcount_us.mnmt", "trace.overhead.engine-paper", "9lives", "a" * 64],
    )
    def test_accepted(self, name):
        assert benchlib.check_metric_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "_x", ".x", "-x", "a" * 65, "has space", "req/s", "naïve", "x\n"]
    )
    def test_rejected(self, name):
        with pytest.raises(ValueError):
            benchlib.check_metric_name(name)

    def test_units(self):
        for unit in ("1/s", "ms", "%", "MiB", "count"):
            assert benchlib.check_unit(unit) == unit
        for unit in ("", "a" * 17, "m s"):
            with pytest.raises(ValueError):
                benchlib.check_unit(unit)

    def test_metrics_reject_duplicates_and_non_finite_values(self):
        metrics = benchlib.Metrics()
        metrics.add("latency_p50_ms", 1.25, "ms")
        with pytest.raises(ValueError):
            metrics.add("latency_p50_ms", 2.0, "ms")
        with pytest.raises(ValueError):
            metrics.add("nan_metric", float("nan"), "ms")
        assert metrics.to_json() == {"latency_p50_ms": {"value": 1.25, "unit": "ms"}}


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert benchlib.request_schedule(7, 500, 24) == benchlib.request_schedule(7, 500, 24)

    def test_other_seed_other_schedule(self):
        assert benchlib.request_schedule(7, 500, 24) != benchlib.request_schedule(8, 500, 24)

    def test_requests_hold_one_to_four_valid_rows(self):
        schedule = benchlib.request_schedule(1, 2000, 24)
        assert len(schedule) == 2000
        assert {len(rows) for rows in schedule} == {1, 2, 3, 4}
        assert all(0 <= row < 24 for rows in schedule for row in rows)


class TestCompareVerdicts:
    OLD = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]

    def test_regression_beyond_the_bound_is_worse(self):
        new = [v * 1.2 for v in self.OLD]
        assert compare.verdict(self.OLD, new, "lower", 0.1) == "worse"
        assert compare.verdict(self.OLD, new, "higher", 0.1) == "better"

    def test_noise_within_the_bound_is_same(self):
        assert compare.verdict(self.OLD, list(reversed(self.OLD)), "lower", 0.1) == "same"

    def test_wide_spread_is_unresolved(self):
        old = [50.0, 100.0, 150.0, 75.0, 125.0, 100.0]
        new = [v * 1.05 for v in old]
        assert compare.verdict(old, new, "lower", 0.1) == "unresolved"

    def test_a_shift_within_wide_spread_is_unresolved_not_worse(self):
        old = [50.0, 100.0, 150.0, 75.0, 125.0, 100.0]
        new = [v * 1.3 for v in old]
        assert compare.verdict(old, new, "lower", 0.25) == "unresolved"

    def test_wide_spread_with_every_run_apart_is_decided(self):
        old = [100.0, 80.0, 120.0, 90.0, 110.0]
        new = [v + 100.0 for v in old]
        assert compare.verdict(old, new, "lower", 0.1) == "worse"
        assert compare.verdict(old, new, "higher", 0.1) == "better"
