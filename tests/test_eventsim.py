"""Tests for the event-level pipeline simulator and detailed stats."""

import numpy as np
import pytest

from repro.accel.config import DEFAULT_CONFIG
from repro.accel.eventsim import (
    baseline_gate_pass_cycles,
    collect_layer_dims,
    gate_pass_cycles,
    replay_trace,
)
from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import DetailedReuseStats
from repro.nn.gru import GRULayer
from repro.nn.linear import Linear
from repro.nn.lstm import LSTMLayer
from repro.nn.module import Module
from repro.nn.rnn import RNNStack


class TestDetailedStats:
    def test_masks_recorded_in_order(self):
        stats = DetailedReuseStats()
        stats.record("l", ("i",), np.array([[True, False]]))
        stats.record("l", ("i",), np.array([[False, False]]))
        assert stats.timesteps("l", "i") == 2
        np.testing.assert_array_equal(
            stats.masks[("l", "i")][0], [[True, False]]
        )

    def test_counts_still_aggregate(self):
        stats = DetailedReuseStats()
        stats.record("l", ("i",), np.array([[True, False]]))
        assert stats.total_evaluations == 2
        assert stats.total_reused == 1

    def test_1d_masks_promoted(self):
        stats = DetailedReuseStats()
        stats.record("l", ("i",), np.array([True, False]))
        assert stats.masks[("l", "i")][0].shape == (1, 2)

    def test_reset_clears_masks(self):
        stats = DetailedReuseStats()
        stats.record("l", ("i",), np.array([[True]]))
        stats.reset()
        assert stats.timesteps("l", "i") == 0


class TestGatePass:
    def test_all_reused_is_fmu_bound(self):
        result = gate_pass_cycles(np.ones(10, dtype=bool), 16, DEFAULT_CONFIG)
        fmu = DEFAULT_CONFIG.fmu
        assert result.cycles == fmu.latency_cycles + 10 * fmu.issue_cycles + 4
        assert result.dpu_busy_cycles == 0
        assert result.reused == 10

    def test_none_reused_is_dpu_bound(self):
        result = gate_pass_cycles(np.zeros(10, dtype=bool), 16, DEFAULT_CONFIG)
        # First decision at fill+1, then 10 back-to-back dots.
        expected = DEFAULT_CONFIG.fmu.latency_cycles + 1 + 10 * 16 + 4
        assert result.cycles == expected
        assert result.dpu_busy_cycles == 160

    def test_monotone_in_reuse(self):
        rng = np.random.default_rng(0)
        base_mask = np.zeros(32, dtype=bool)
        prev = gate_pass_cycles(base_mask, 16, DEFAULT_CONFIG).cycles
        mask = base_mask.copy()
        for idx in rng.permutation(32):
            mask[idx] = True
            now = gate_pass_cycles(mask, 16, DEFAULT_CONFIG).cycles
            assert now <= prev
            prev = now

    def test_baseline_pass(self):
        assert baseline_gate_pass_cycles(10, 16) == 164

    def test_skipping_late_neurons_saves_more_than_early(self):
        """A reuse at the end of the pass removes a dot from the critical
        path tail; a reuse at the start is hidden behind the FMU fill."""
        dot = 16
        early = np.zeros(16, dtype=bool)
        early[0] = True
        late = np.zeros(16, dtype=bool)
        late[-1] = True
        c_early = gate_pass_cycles(early, dot, DEFAULT_CONFIG).cycles
        c_late = gate_pass_cycles(late, dot, DEFAULT_CONFIG).cycles
        assert c_late <= c_early


class TestReplayTrace:
    def _run(self, theta):
        rng = np.random.default_rng(7)
        stack = RNNStack([LSTMLayer(8, 8, rng=rng), GRULayer(8, 8, rng=rng)])
        dims = collect_layer_dims(stack)
        base = rng.standard_normal((2, 1, 8))
        drift = np.cumsum(0.05 * rng.standard_normal((2, 20, 8)), axis=1)
        stats = DetailedReuseStats()
        with memoized(stack, MemoizationScheme(theta=theta), stats):
            stack(base + drift)
        return stats, dims

    def test_reports_consistent_with_stats(self):
        stats, dims = self._run(theta=0.4)
        memo, base = replay_trace(stats, dims)
        assert memo.reuse_fraction == pytest.approx(stats.reuse_fraction())
        assert base.reuse_fraction == 0.0
        assert base.evaluated_neurons == stats.total_evaluations

    def test_paper_scale_dims_show_speedup(self):
        """With paper-like dot widths the recorded reuse pattern yields a
        clear event-level speedup; at toy widths the FMU overhead can
        eat it — exactly §5's low-reuse warning."""
        stats, dims = self._run(theta=0.4)
        paper_dims = {name: (320, 320) for name in dims}
        memo, base = replay_trace(stats, paper_dims)
        if stats.reuse_fraction() > 0.2:
            assert memo.speedup_over(base) > 1.0

    def test_missing_dims_raise(self):
        stats, dims = self._run(theta=0.4)
        with pytest.raises(KeyError):
            replay_trace(stats, {"wrong": (8, 8)})

    def test_empty_stats_raise(self):
        with pytest.raises(ValueError):
            replay_trace(DetailedReuseStats(), {})

    def test_utilization_drops_with_memoization(self):
        stats, dims = self._run(theta=0.6)
        memo, base = replay_trace(stats, dims)
        assert memo.dpu_utilization <= base.dpu_utilization
        assert 0.0 <= memo.dpu_utilization <= 1.0


class TestCollectLayerDims:
    def test_names_match_engine(self):
        rng = np.random.default_rng(9)
        stack = RNNStack([LSTMLayer(4, 6, rng=rng)])
        dims = collect_layer_dims(stack)
        assert dims == {"layer0": (4, 6)}

    def test_no_recurrent_layers_raise(self):
        class Dense(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(3, 3)

        with pytest.raises(ValueError):
            collect_layer_dims(Dense())
