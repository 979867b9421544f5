"""Tests for the E-PUR accelerator model (config, timing, energy, area)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.area import DEFAULT_AREA_MODEL, AreaModel
from repro.accel.config import DEFAULT_CONFIG, EPURConfig, FMUConfig, KIB, MIB
from repro.accel.energy import baseline_energy, memoized_energy
from repro.accel.epur import compare, simulate_baseline, simulate_memoized
from repro.accel.timing import (
    baseline_timing,
    memoized_timing,
    neuron_dot_cycles,
    saved_cycles_per_reuse,
)
from repro.accel.trace import ReuseTrace
from repro.core.stats import ReuseStats
from repro.models.specs import PAPER_NETWORKS


class TestConfig:
    def test_table2_defaults(self):
        config = DEFAULT_CONFIG
        assert config.technology_nm == 28
        assert config.frequency_hz == 500e6
        assert config.dpu_width == 16
        assert config.weight_buffer_bytes == 2 * MIB
        assert config.input_buffer_bytes == 8 * KIB
        assert config.intermediate_memory_bytes == 6 * MIB
        assert config.fmu.bdpu_width_bits == 2048
        assert config.fmu.latency_cycles == 5
        assert config.fmu.memo_buffer_bytes == 8 * KIB

    def test_cycle_seconds(self):
        assert DEFAULT_CONFIG.cycle_seconds == pytest.approx(2e-9)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            EPURConfig(dpu_width=0)
        with pytest.raises(ValueError):
            EPURConfig(weight_bits=8)
        with pytest.raises(ValueError):
            FMUConfig(issue_cycles=0)


class TestTrace:
    def test_uniform(self):
        trace = ReuseTrace.uniform(0.3, 4)
        assert trace.num_layers == 4
        assert trace.mean_reuse() == pytest.approx(0.3)

    def test_zero(self):
        assert ReuseTrace.zero(3).mean_reuse() == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ReuseTrace([1.5])
        with pytest.raises(ValueError):
            ReuseTrace([])

    def test_from_stats_projects_layers(self):
        stats = ReuseStats()
        stats.record("a", ("i",), np.array([True, True, False, False]))  # 0.5
        stats.record("b", ("i",), np.array([True, False, False, False]))  # 0.25
        spec = PAPER_NETWORKS["deepspeech2"]  # 5 layers
        trace = ReuseTrace.from_stats(stats, spec)
        assert trace.num_layers == 5
        assert set(trace.layer_reuse) == {0.5, 0.25}

    def test_from_stats_empty_raises(self):
        with pytest.raises(ValueError):
            ReuseTrace.from_stats(ReuseStats(), PAPER_NETWORKS["imdb"])


class TestTiming:
    def test_neuron_dot_cycles(self):
        # IMDB: (128 + 128) / 16 = 16 cycles — §5's lower bound.
        assert neuron_dot_cycles(128, 128, DEFAULT_CONFIG) == 16

    def test_saved_cycles_range_matches_paper(self):
        """§5: one avoided evaluation saves between 16 and 80+ cycles."""
        all_saved = []
        for spec in PAPER_NETWORKS.values():
            all_saved.extend(saved_cycles_per_reuse(spec, DEFAULT_CONFIG))
        assert min(all_saved) == 16
        assert max(all_saved) >= 80

    def test_baseline_scales_with_sequence(self):
        spec = PAPER_NETWORKS["imdb"]
        report = baseline_timing(spec, DEFAULT_CONFIG)
        per_step = report.total_cycles / spec.avg_sequence_length
        assert per_step == pytest.approx(128 * 16 + 4)

    def test_zero_reuse_slower_than_baseline(self):
        """E-PUR+BM with no reuse pays pure overhead."""
        spec = PAPER_NETWORKS["eesen"]
        base = baseline_timing(spec, DEFAULT_CONFIG)
        memo = memoized_timing(spec, DEFAULT_CONFIG, ReuseTrace.zero(spec.layers))
        assert memo.total_cycles > base.total_cycles

    def test_speedup_grows_with_reuse(self):
        spec = PAPER_NETWORKS["eesen"]
        base = baseline_timing(spec, DEFAULT_CONFIG)
        speedups = []
        for reuse in (0.1, 0.3, 0.5):
            memo = memoized_timing(
                spec, DEFAULT_CONFIG, ReuseTrace.uniform(reuse, spec.layers)
            )
            speedups.append(memo.speedup_over(base))
        assert speedups[0] < speedups[1] < speedups[2]

    def test_trace_layer_mismatch_raises(self):
        with pytest.raises(ValueError):
            memoized_timing(
                PAPER_NETWORKS["eesen"], DEFAULT_CONFIG, ReuseTrace.zero(3)
            )

    @given(st.floats(0.0, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_speedup_bounded_by_ideal(self, reuse):
        """Speedup can never exceed the zero-overhead ideal 1/(1-r)."""
        spec = PAPER_NETWORKS["imdb"]
        base = baseline_timing(spec, DEFAULT_CONFIG)
        memo = memoized_timing(
            spec, DEFAULT_CONFIG, ReuseTrace.uniform(reuse, spec.layers)
        )
        assert memo.speedup_over(base) <= 1.0 / (1.0 - reuse) + 1e-9


class TestEnergy:
    def test_baseline_breakdown_shape(self):
        """§3.1: weight fetching (scratchpad) dominates the energy."""
        for spec in PAPER_NETWORKS.values():
            report = baseline_energy(spec, DEFAULT_CONFIG)
            assert report.fraction("scratchpad") > 0.4
            assert report.by_component["fmu"] == 0.0

    def test_memoized_saves_energy_at_paper_reuse(self):
        for name, spec in PAPER_NETWORKS.items():
            reuse = spec.paper_reuse_percent / 100.0
            trace = ReuseTrace.uniform(reuse, spec.layers)
            base = baseline_energy(spec, DEFAULT_CONFIG)
            memo = memoized_energy(spec, DEFAULT_CONFIG, trace)
            savings = memo.savings_over(base)
            assert savings > 0.05, f"{name}: {savings}"

    def test_zero_reuse_costs_extra(self):
        spec = PAPER_NETWORKS["imdb"]
        base = baseline_energy(spec, DEFAULT_CONFIG)
        memo = memoized_energy(
            spec, DEFAULT_CONFIG, ReuseTrace.zero(spec.layers)
        )
        assert memo.total > base.total

    def test_dram_unchanged(self):
        """§5: main-memory energy is not affected by memoization."""
        spec = PAPER_NETWORKS["eesen"]
        base = baseline_energy(spec, DEFAULT_CONFIG)
        memo = memoized_energy(
            spec, DEFAULT_CONFIG, ReuseTrace.uniform(0.3, spec.layers)
        )
        assert memo.by_component["dram"] == pytest.approx(
            base.by_component["dram"]
        )

    def test_savings_monotone_in_reuse(self):
        spec = PAPER_NETWORKS["eesen"]
        base = baseline_energy(spec, DEFAULT_CONFIG)
        savings = []
        for reuse in (0.1, 0.3, 0.5):
            memo = memoized_energy(
                spec, DEFAULT_CONFIG, ReuseTrace.uniform(reuse, spec.layers)
            )
            savings.append(memo.savings_over(base))
        assert savings[0] < savings[1] < savings[2]

    def test_fmu_overhead_is_small(self):
        """§5: the FMU energy overhead is negligible vs the total."""
        spec = PAPER_NETWORKS["eesen"]
        memo = memoized_energy(
            spec, DEFAULT_CONFIG, ReuseTrace.uniform(0.3, spec.layers)
        )
        assert memo.fraction("fmu") < 0.12


class TestComparison:
    def test_headline_numbers_shape(self):
        """Average savings and speedup at the paper's per-network reuse
        land near the paper's 18.5% / 1.35x."""
        savings, speedups = [], []
        for spec in PAPER_NETWORKS.values():
            trace = ReuseTrace.uniform(
                spec.paper_reuse_percent / 100.0, spec.layers
            )
            c = compare(spec, trace)
            savings.append(c.energy_savings_percent)
            speedups.append(c.speedup)
        assert 14.0 <= float(np.mean(savings)) <= 28.0
        assert 1.2 <= float(np.mean(speedups)) <= 1.5

    def test_breakdown_percent_normalised_to_baseline(self):
        spec = PAPER_NETWORKS["imdb"]
        c = compare(spec, ReuseTrace.uniform(0.3, spec.layers))
        breakdown = c.breakdown_percent()
        assert sum(breakdown["epur"].values()) == pytest.approx(100.0)
        assert sum(breakdown["epur_bm"].values()) < 100.0  # saved energy

    def test_simulate_functions(self):
        spec = PAPER_NETWORKS["imdb"]
        base = simulate_baseline(spec)
        memo = simulate_memoized(spec, ReuseTrace.uniform(0.3, spec.layers))
        assert base.total_cycles > 0
        assert memo.total_energy < base.total_energy


class TestArea:
    def test_paper_totals(self):
        model = DEFAULT_AREA_MODEL
        assert model.baseline_mm2 == pytest.approx(64.6, abs=0.01)
        assert model.memoized_mm2 == pytest.approx(66.8, abs=0.01)

    def test_overhead_fraction(self):
        # §5: about 4% area overhead.
        assert DEFAULT_AREA_MODEL.overhead_fraction == pytest.approx(0.034, abs=0.01)

    def test_scratchpad_is_largest_overhead(self):
        """§5: the largest overhead contribution is the extra scratchpad."""
        extra = DEFAULT_AREA_MODEL.memoization_components
        assert extra["memo_scratchpad"] > extra["fmu_datapath"]

    def test_breakdown_merges_components(self):
        breakdown = DEFAULT_AREA_MODEL.breakdown()
        assert "weight_buffers" in breakdown
        assert "fmu_datapath" in breakdown
        assert sum(breakdown.values()) == pytest.approx(
            DEFAULT_AREA_MODEL.memoized_mm2
        )

    def test_custom_model(self):
        model = AreaModel(
            baseline_components={"a": 10.0},
            memoization_components={"b": 1.0},
        )
        assert model.memoized_mm2 == 11.0
