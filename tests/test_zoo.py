"""Tests for the benchmark zoo and harness (specs, splits, caching)."""

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme, iter_recurrent_layers
from repro.models.benchmark import split_validation
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS, NetworkSpec
from repro.models.zoo import build_benchmark, load_benchmark


class TestSpecs:
    def test_table1_names(self):
        assert set(BENCHMARK_NAMES) == {"imdb", "deepspeech2", "eesen", "mnmt"}

    def test_table1_values(self):
        imdb = PAPER_NETWORKS["imdb"]
        assert (imdb.cell_type, imdb.layers, imdb.neurons) == ("lstm", 1, 128)
        assert imdb.base_quality == 86.5
        ds2 = PAPER_NETWORKS["deepspeech2"]
        assert (ds2.cell_type, ds2.layers, ds2.neurons) == ("gru", 5, 800)
        eesen = PAPER_NETWORKS["eesen"]
        assert eesen.bidirectional and eesen.layers == 10
        mnmt = PAPER_NETWORKS["mnmt"]
        assert mnmt.neurons == 1024 and mnmt.quality_metric == "bleu"

    def test_gates_per_cell(self):
        assert PAPER_NETWORKS["imdb"].gates_per_cell == 4
        assert PAPER_NETWORKS["deepspeech2"].gates_per_cell == 3

    def test_layer_input_sizes_unidirectional(self):
        sizes = PAPER_NETWORKS["deepspeech2"].layer_input_sizes()
        assert sizes == (800, 800, 800, 800, 800)

    def test_layer_input_sizes_bidirectional(self):
        sizes = PAPER_NETWORKS["eesen"].layer_input_sizes()
        assert len(sizes) == 10
        assert sizes[0] == sizes[1] == 320  # first pair sees the input
        assert sizes[2] == sizes[3] == 640  # later pairs see both directions

    def test_higher_is_better(self):
        assert PAPER_NETWORKS["imdb"].higher_is_better
        assert not PAPER_NETWORKS["eesen"].higher_is_better

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(
                name="x", app_domain="d", cell_type="rnn", layers=1, neurons=8,
                bidirectional=False, input_size=8, avg_sequence_length=10,
                base_quality=1.0, quality_metric="accuracy",
                paper_reuse_percent=0.0, dataset="d",
            )
        with pytest.raises(ValueError):
            NetworkSpec(
                name="x", app_domain="d", cell_type="lstm", layers=3, neurons=8,
                bidirectional=True, input_size=8, avg_sequence_length=10,
                base_quality=1.0, quality_metric="wer",
                paper_reuse_percent=0.0, dataset="d",
            )


class TestSplitValidation:
    def test_disjoint_and_complete(self):
        indices = np.arange(40)
        fit, val = split_validation(indices, seed=0)
        assert set(fit).isdisjoint(val)
        assert sorted(np.concatenate([fit, val])) == list(range(40))

    def test_fraction(self):
        fit, val = split_validation(np.arange(40), seed=0, fraction=0.25)
        assert len(val) == 10

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            split_validation(np.array([1]), seed=0)


class TestBuilders:
    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            build_benchmark("resnet")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="scale"):
            build_benchmark("imdb", scale="huge")

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_builds_untrained(self, name):
        bench = build_benchmark(name, scale="tiny")
        assert bench.base_quality is None
        assert bench.name == name

    def test_splits_disjoint(self):
        bench = build_benchmark("imdb", scale="tiny")
        all_idx = np.concatenate([bench.train_idx, bench.val_idx, bench.test_idx])
        assert len(np.unique(all_idx)) == len(all_idx)

    def test_quality_loss_requires_training(self):
        bench = build_benchmark("imdb", scale="tiny")
        with pytest.raises(RuntimeError):
            bench.quality_loss(50.0)


@pytest.mark.parametrize("name", tuple(BENCHMARK_NAMES))
def test_no_bptt_cache_outlives_training(name):
    """train() ends with evaluate(); neither leaves a BPTT cache behind,
    and neither does a memoized evaluation."""
    bench = load_benchmark(name, scale="tiny")
    layers = [layer for layer, _ in iter_recurrent_layers(bench.model)]
    assert layers and all(layer._caches == [] for layer in layers)
    bench.evaluate_memoized(MemoizationScheme(theta=0.3))
    bench.evaluate()
    assert all(layer._caches == [] for layer in layers)


class TestTrainedBenchmark:
    """Uses the shared cached IMDB instance (fast to train)."""

    @pytest.fixture(scope="class")
    def bench(self):
        return load_benchmark("imdb", scale="tiny")

    def test_base_quality_reasonable(self, bench):
        assert bench.base_quality > 70.0

    def test_cache_returns_same_instance(self, bench):
        assert load_benchmark("imdb", scale="tiny") is bench

    def test_quality_loss_clamps(self, bench):
        assert bench.quality_loss(bench.base_quality + 5.0) == 0.0
        assert bench.quality_loss(bench.base_quality - 2.0) == pytest.approx(2.0)

    def test_evaluate_memoized(self, bench):
        result = bench.evaluate_memoized(MemoizationScheme(theta=0.3))
        assert 0.0 <= result.reuse_fraction <= 1.0
        assert result.reuse_percent == pytest.approx(100 * result.reuse_fraction)
        assert result.quality_loss >= 0.0

    def test_calibration_differs_from_test(self, bench):
        """Calibration must run on the validation split, not test."""
        test_result = bench.evaluate_memoized(MemoizationScheme(theta=0.3))
        cal_result = bench.evaluate_memoized(
            MemoizationScheme(theta=0.3), calibration=True
        )
        # Different split sizes -> different evaluation counts.
        assert (
            cal_result.stats.total_evaluations != test_result.stats.total_evaluations
        )

    def test_hidden_sequences(self, bench):
        hidden = bench.hidden_sequences()
        assert all(h.ndim == 3 for h in hidden)

    def test_layer_io_pairs(self, bench):
        pairs = bench.layer_io_pairs()
        assert len(pairs) >= 1
