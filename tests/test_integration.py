"""Integration tests: the full pipeline across module boundaries.

These intentionally cross every seam — dataset -> model -> training ->
memoized evaluation -> trace -> accelerator — on the cached tiny IMDB
benchmark (fast to train) plus cheap untrained models elsewhere.
"""

import numpy as np
import pytest

from repro.accel.epur import compare
from repro.accel.eventsim import collect_layer_dims, replay_trace
from repro.accel.trace import ReuseTrace
from repro.analysis.sweep import end_to_end
from helpers import ReferenceHook
from repro.core import engine as engine_module
from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import DetailedReuseStats, ReuseStats
from repro.models.zoo import load_benchmark
from repro.nn.serialization import load_state, save_state


@pytest.fixture(scope="module")
def imdb():
    return load_benchmark("imdb", scale="tiny")


class TestFunctionalToAccelerator:
    def test_stats_to_trace_to_comparison(self, imdb):
        result = imdb.evaluate_memoized(MemoizationScheme(theta=0.3))
        trace = ReuseTrace.from_stats(result.stats, imdb.spec)
        assert trace.num_layers == imdb.spec.layers
        comparison = compare(imdb.spec, trace)
        assert comparison.reuse_percent == pytest.approx(
            100 * trace.mean_reuse()
        )
        assert comparison.speedup > 1.0

    def test_end_to_end_consistency(self, imdb):
        """The e2e pipeline's reuse equals re-evaluating its theta."""
        result = end_to_end(imdb, loss_target=2.0, thetas=(0.0, 0.3))
        direct = imdb.evaluate_memoized(
            MemoizationScheme(theta=result.theta)
        )
        assert result.reuse_percent == pytest.approx(
            direct.reuse_percent, abs=1e-9
        )

    def test_detailed_stats_through_model(self, imdb):
        """DetailedReuseStats + eventsim work on a real trained model."""
        stats = DetailedReuseStats()
        dims = collect_layer_dims(imdb.model)
        with memoized(imdb.model, MemoizationScheme(theta=0.3), stats):
            imdb.evaluate()
        memo, base = replay_trace(stats, dims)
        assert memo.reuse_fraction == pytest.approx(stats.reuse_fraction())
        assert base.total_cycles >= memo.total_cycles * 0.5  # sane scale


class TestModelPersistenceUnderMemoization:
    def test_saved_model_reproduces_memoized_run(self, imdb, tmp_path):
        """state -> disk -> fresh model: identical memoized behaviour."""
        path = tmp_path / "imdb.npz"
        save_state(imdb.model, path)
        fresh = load_benchmark("imdb", scale="tiny", trained=False)
        # Note: trained=False returns an *untrained* cached instance —
        # distinct cache key, so we do not clobber the trained one.
        load_state(fresh.model, path)
        fresh._trained = True
        fresh.base_quality = fresh.evaluate()
        assert fresh.base_quality == imdb.base_quality

        ours = fresh.evaluate_memoized(MemoizationScheme(theta=0.3))
        theirs = imdb.evaluate_memoized(MemoizationScheme(theta=0.3))
        assert ours.reuse_fraction == pytest.approx(theirs.reuse_fraction)
        assert ours.quality == pytest.approx(theirs.quality)


class TestDeterminism:
    def test_memoized_evaluation_is_deterministic(self, imdb):
        a = imdb.evaluate_memoized(MemoizationScheme(theta=0.2))
        b = imdb.evaluate_memoized(MemoizationScheme(theta=0.2))
        assert a.reuse_fraction == b.reuse_fraction
        assert a.quality == b.quality

    def test_same_seed_same_benchmark(self):
        a = load_benchmark("imdb", scale="tiny", trained=False)
        b_fresh = type(a)(scale="tiny", seed=0)
        np.testing.assert_array_equal(
            a.dataset.tokens, b_fresh.dataset.tokens
        )

    def test_different_seed_different_data(self):
        from repro.models.zoo import build_benchmark

        a = build_benchmark("imdb", scale="tiny", seed=0)
        b = build_benchmark("imdb", scale="tiny", seed=1)
        assert not np.array_equal(a.dataset.tokens, b.dataset.tokens)


class TestSchemeMatrixOnRealModel:
    @pytest.mark.parametrize("predictor", ["bnn", "oracle", "input"])
    @pytest.mark.parametrize("throttle", [True, False])
    def test_all_scheme_combinations_run(self, imdb, predictor, throttle):
        scheme = MemoizationScheme(
            theta=0.2, predictor=predictor, throttle=throttle
        )
        result = imdb.evaluate_memoized(scheme)
        assert 0.0 <= result.reuse_fraction <= 1.0
        assert result.quality >= 0.0

    def test_packed_matches_plain_on_real_model(self, imdb, monkeypatch):
        """The engine's packed BNN kernel and the per-gate reference's
        plain ±1 matmul agree on a trained model."""
        scheme = MemoizationScheme(theta=0.2)
        packed = imdb.evaluate_memoized(scheme)
        monkeypatch.setattr(engine_module, "wrap_layer", ReferenceHook)
        plain = imdb.evaluate_memoized(scheme)
        assert plain.reuse_fraction == packed.reuse_fraction
        assert plain.quality == packed.quality
