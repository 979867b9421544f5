"""Tests for sweeps, frontiers, figure rendering and the e2e pipeline."""

import pytest

from repro.analysis.figures import render_series, render_table
from repro.analysis.sweep import end_to_end, frontier, network_sweep
from repro.core.calibration import ThresholdSweep
from repro.core.engine import MemoizationScheme
from repro.models.zoo import load_benchmark


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bb", 20]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "1.50" in lines[2]

    def test_ragged_rows_raise(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only one"]])

    def test_empty_rows_ok(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestRenderSeries:
    def test_pairs(self):
        text = render_series("reuse", [0.1, 0.2], [30.0, 40.0], unit="%")
        assert "(0.10, 30.00)" in text
        assert "[%]" in text

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("x", [1.0], [1.0, 2.0])


class TestFrontier:
    def test_maps_targets_to_points(self):
        sweep = ThresholdSweep()
        sweep.add(0.1, loss=0.5, reuse=0.2)
        sweep.add(0.3, loss=1.5, reuse=0.4)
        result = frontier(sweep, [1.0, 2.0])
        assert result[1.0].theta == 0.1
        assert result[2.0].theta == 0.3

    def test_unreachable_target_is_none(self):
        sweep = ThresholdSweep()
        sweep.add(0.1, loss=9.0, reuse=0.2)
        assert frontier(sweep, [1.0])[1.0] is None


class TestNetworkSweep:
    @pytest.fixture(scope="class")
    def bench(self):
        return load_benchmark("imdb", scale="tiny")

    def test_sweep_points(self, bench):
        sweep = network_sweep(
            bench, MemoizationScheme(), thetas=(0.0, 0.3, 0.6)
        )
        assert sweep.thetas == [0.0, 0.3, 0.6]
        assert all(r >= 0.0 for r in sweep.reuses)
        assert all(loss >= 0.0 for loss in sweep.losses)
        assert all(0.0 <= r <= 1.0 for r in sweep.reuses)
        # Reuse grows (weakly) with theta.
        assert sweep.reuses[0] <= sweep.reuses[-1] + 1e-9

    def test_oracle_sweep_zero_loss_at_zero_theta(self, bench):
        sweep = network_sweep(
            bench, MemoizationScheme(predictor="oracle"), thetas=(0.0,)
        )
        assert sweep.losses[0] == 0.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def result(self):
        bench = load_benchmark("imdb", scale="tiny")
        return end_to_end(bench, loss_target=2.0, thetas=(0.0, 0.2, 0.4))

    def test_fields(self, result):
        assert result.network == "imdb"
        assert result.theta in (0.0, 0.2, 0.4)
        assert 0.0 <= result.reuse_percent <= 100.0
        assert result.quality_loss >= 0.0

    def test_accelerator_quantities(self, result):
        assert result.speedup > 1.0
        assert result.energy_savings_percent > 0.0

    def test_calibration_sweep_recorded(self, result):
        assert len(result.calibration_sweep.points) == 3
