"""Tests for the memoization engine (scheme + model-tree wrapping)."""

import numpy as np
import pytest

from helpers import ReferenceHook
from repro.core import engine as engine_module
from repro.core.engine import (
    MemoizationScheme,
    apply_memoization,
    memoized,
    restore,
    swap_scheme,
)
from repro.core.layers import MemoizedRecurrentLayer
from repro.core.stats import ReuseStats
from repro.nn.gru import GRULayer
from repro.nn.linear import Linear
from repro.nn.lstm import LSTMLayer
from repro.nn.module import Module
from repro.nn.rnn import Bidirectional, RNNLayer, RNNStack


@pytest.fixture
def rng():
    return np.random.default_rng(37)


def smooth_inputs(rng, batch=2, steps=15, dim=5):
    base = rng.standard_normal((batch, 1, dim))
    drift = np.cumsum(0.05 * rng.standard_normal((batch, steps, dim)), axis=1)
    return base + drift


def engine_and_reference(monkeypatch, run):
    """``run()`` on the engine, then again with every layer the engine
    wraps wrapped in the per-gate :class:`helpers.ReferenceHook`."""
    engine = run()
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "wrap_layer", ReferenceHook)
        reference = run()
    return engine, reference


class TestScheme:
    def test_defaults(self):
        scheme = MemoizationScheme()
        assert scheme.predictor == "bnn"
        assert scheme.throttle is True

    def test_invalid_predictor(self):
        with pytest.raises(ValueError):
            MemoizationScheme(predictor="magic")

    def test_invalid_predictor_message_lists_kinds(self):
        """The error must name every valid kind, not fail in the engine."""
        with pytest.raises(ValueError) as excinfo:
            MemoizationScheme(predictor="magic")
        message = str(excinfo.value)
        for kind in ("bnn", "oracle", "input"):
            assert kind in message
        assert "magic" in message

    def test_make_predictor_rejects_unknown_kind(self, rng):
        """Defensive re-check for schemes whose validation was bypassed."""
        scheme = MemoizationScheme()
        object.__setattr__(scheme, "predictor", "magic")
        with pytest.raises(ValueError, match="magic"):
            scheme.make_predictor(
                rng.standard_normal((4, 3)), rng.standard_normal((4, 4))
            )

    def test_negative_theta(self):
        with pytest.raises(ValueError):
            MemoizationScheme(theta=-0.5)

    def test_with_theta_copies(self):
        scheme = MemoizationScheme(theta=0.1, predictor="oracle")
        other = scheme.with_theta(0.9)
        assert other.theta == 0.9
        assert other.predictor == "oracle"
        assert scheme.theta == 0.1

    @pytest.mark.parametrize("kind", ["bnn", "oracle", "input"])
    def test_make_predictor(self, rng, kind):
        scheme = MemoizationScheme(predictor=kind)
        predictor = scheme.make_predictor(
            rng.standard_normal((4, 3)), rng.standard_normal((4, 4))
        )
        predictor.begin_sequence(1)


class TestApplyRestore:
    def test_wraps_all_recurrent_layers(self, rng):
        stack = RNNStack(
            [
                LSTMLayer(5, 6, rng=rng),
                GRULayer(6, 4, rng=rng),
                Bidirectional.lstm(4, 3, rng=rng),
            ]
        )
        stats = ReuseStats()
        replacements = apply_memoization(stack, MemoizationScheme(), stats)
        try:
            assert isinstance(stack.layer0, MemoizedRecurrentLayer)
            assert isinstance(stack.layer1, MemoizedRecurrentLayer)
            assert isinstance(stack.layer2.fwd, MemoizedRecurrentLayer)
            assert isinstance(stack.layer2.bwd, MemoizedRecurrentLayer)
            assert len(replacements) == 4
        finally:
            restore(replacements)
        assert isinstance(stack.layer0, LSTMLayer)
        assert isinstance(stack.layer2.fwd, LSTMLayer)

    def test_layer_names_are_dotted_paths(self, rng):
        stack = RNNStack([Bidirectional.lstm(5, 3, rng=rng)])
        stats = ReuseStats()
        replacements = apply_memoization(stack, MemoizationScheme(), stats)
        try:
            stack(smooth_inputs(rng))
            layer_names = {name for (name, _) in stats.total}
            assert layer_names == {"layer0.fwd", "layer0.bwd"}
        finally:
            restore(replacements)

    def test_no_recurrent_layers_raises(self, rng):
        class Dense(Module):
            def __init__(self):
                super().__init__()
                self.lin = Linear(3, 3, rng=rng)

        with pytest.raises(ValueError, match="no recurrent layers"):
            apply_memoization(Dense(), MemoizationScheme(), ReuseStats())


class TestContextManager:
    def test_outputs_restored_after_exit(self, rng):
        stack = RNNStack([LSTMLayer(5, 6, rng=rng)])
        x = smooth_inputs(rng)
        reference = stack(x)
        with memoized(stack, MemoizationScheme(theta=0.5), ReuseStats()):
            memo_out = stack(x)
        after = stack(x)
        np.testing.assert_array_equal(reference, after)
        assert memo_out.shape == reference.shape

    def test_restores_on_exception(self, rng):
        stack = RNNStack([LSTMLayer(5, 6, rng=rng)])
        with pytest.raises(RuntimeError, match="boom"), memoized(
            stack, MemoizationScheme(), ReuseStats()
        ):
            raise RuntimeError("boom")
        assert isinstance(stack.layer0, LSTMLayer)

    def test_stats_populated(self, rng):
        stack = RNNStack([LSTMLayer(5, 6, rng=rng), GRULayer(6, 4, rng=rng)])
        stats = ReuseStats()
        with memoized(stack, MemoizationScheme(theta=1.0), stats):
            stack(smooth_inputs(rng))
        assert stats.total_evaluations > 0
        assert stats.reuse_fraction() > 0.0

    def test_oracle_upper_bounds_bnn_loss(self, rng):
        """At the same theta on the same model, the oracle's outputs are
        at least as close to the reference as the BNN's (it never makes a
        wrong reuse decision beyond the threshold)."""
        x = smooth_inputs(rng, steps=25)
        stack = RNNStack([LSTMLayer(5, 8, rng=np.random.default_rng(37))])
        reference = stack(x)
        errors = {}
        for predictor in ("oracle", "bnn"):
            with memoized(
                stack, MemoizationScheme(theta=0.2, predictor=predictor), ReuseStats()
            ):
                out = stack(x)
            errors[predictor] = float(np.abs(out - reference).mean())
        assert errors["oracle"] <= errors["bnn"] + 1e-9

    def test_packed_and_plain_bnn_identical(self, rng, monkeypatch):
        """The engine's packed popcount BNN and the reference's plain ±1
        matmul BNN give the same outputs."""
        x = smooth_inputs(rng)

        def run():
            stack = RNNStack([LSTMLayer(5, 6, rng=np.random.default_rng(37))])
            with memoized(stack, MemoizationScheme(theta=0.3), ReuseStats()):
                return stack(x)

        packed, plain = engine_and_reference(monkeypatch, run)
        np.testing.assert_array_equal(plain, packed)

    def test_mixed_stack_bitwise_equivalent(self, rng, monkeypatch):
        """The engine and the per-gate reference agree bitwise across a
        stack mixing every wrappable layer type, on outputs and on the
        reuse stats of every layer, both Bidirectional directions
        included."""
        x = smooth_inputs(rng, batch=3, steps=20)

        def run():
            stack = RNNStack(
                [
                    LSTMLayer(5, 6, rng=np.random.default_rng(37)),
                    GRULayer(6, 4, rng=np.random.default_rng(38)),
                    RNNLayer(4, 5, rng=np.random.default_rng(39)),
                    Bidirectional.lstm(5, 3, rng=np.random.default_rng(40)),
                ]
            )
            stats = ReuseStats()
            with memoized(stack, MemoizationScheme(theta=0.3), stats):
                out = stack(x)
            return out, stats

        (vec_out, vec_stats), (ref_out, ref_stats) = engine_and_reference(monkeypatch, run)
        np.testing.assert_array_equal(vec_out, ref_out)
        assert {layer for layer, _ in vec_stats.total} == {
            "layer0", "layer1", "layer2", "layer3.fwd", "layer3.bwd"
        }
        assert vec_stats.reused == ref_stats.reused
        assert vec_stats.total == ref_stats.total


class TestZooEquivalence:
    """The engine (stacked phases, packed BNN kernel, memo tables) vs the
    per-gate scalar reference on every zoo network: quality and reuse
    must agree exactly (end-to-end, trained tiny models)."""

    @pytest.mark.parametrize("name", ["imdb", "deepspeech2", "eesen", "mnmt"])
    def test_vectorized_matches_scalar(self, name, monkeypatch):
        from repro.models.zoo import load_benchmark

        benchmark = load_benchmark(name, scale="tiny")
        scheme = MemoizationScheme(theta=0.3)
        result, reference = engine_and_reference(
            monkeypatch, lambda: benchmark.evaluate_memoized(scheme)
        )
        assert result.quality == reference.quality
        assert result.reuse_fraction == reference.reuse_fraction
        assert result.stats.reused == reference.stats.reused
        assert result.stats.total == reference.stats.total


class _SecondLayerNegative(dict):
    """A mapping that smuggles a negative per-layer theta past scheme
    construction: ``values()`` shows nothing invalid, but ``get`` hands
    the walk a negative threshold for one specific layer — so the
    failure only surfaces mid-walk, after earlier layers are wrapped."""

    def __init__(self, bad_layer):
        super().__init__()
        self.bad_layer = bad_layer

    def get(self, key, default=None):
        return -1.0 if key == self.bad_layer else default


class TestAtomicApply:
    """A failed apply_memoization must leave the model untouched."""

    def make_stack(self, rng):
        return RNNStack([LSTMLayer(5, 6, rng=rng), GRULayer(6, 4, rng=rng)])

    def test_mid_walk_failure_restores_swapped_layers(self, rng):
        stack = self.make_stack(rng)
        x = smooth_inputs(rng)
        reference = stack(x)
        original_layers = dict(stack._children)
        scheme = MemoizationScheme(
            layer_thetas=_SecondLayerNegative("layer1")
        )
        with pytest.raises(ValueError, match="non-negative"):
            apply_memoization(stack, scheme, ReuseStats())
        # Byte-for-byte intact: same child registry, same layer objects,
        # same outputs.
        assert dict(stack._children) == original_layers
        assert stack.layer0 is original_layers["layer0"]
        assert stack.layer1 is original_layers["layer1"]
        np.testing.assert_array_equal(stack(x), reference)

    def test_mid_walk_failure_in_nested_model(self, rng):
        stack = RNNStack(
            [LSTMLayer(5, 6, rng=rng), Bidirectional.lstm(6, 3, rng=rng)]
        )
        x = smooth_inputs(rng)
        reference = stack(x)
        scheme = MemoizationScheme(
            layer_thetas=_SecondLayerNegative("layer1.bwd")
        )
        with pytest.raises(ValueError, match="non-negative"):
            apply_memoization(stack, scheme, ReuseStats())
        assert isinstance(stack.layer0, LSTMLayer)
        assert isinstance(stack.layer1.fwd, LSTMLayer)
        assert isinstance(stack.layer1.bwd, LSTMLayer)
        np.testing.assert_array_equal(stack(x), reference)

    def test_successful_apply_still_works(self, rng):
        stack = self.make_stack(rng)
        replacements = apply_memoization(
            stack, MemoizationScheme(), ReuseStats()
        )
        try:
            assert isinstance(stack.layer0, MemoizedRecurrentLayer)
            assert isinstance(stack.layer1, MemoizedRecurrentLayer)
        finally:
            restore(replacements)


class TestSwapScheme:
    """swap_scheme: the live-retuning primitive behind `repro serve`."""

    def test_swap_rewraps_under_new_scheme(self, rng):
        stack = RNNStack([LSTMLayer(5, 6, rng=rng)])
        x = smooth_inputs(rng)
        stats = ReuseStats()
        old = MemoizationScheme(theta=0.05)
        new = MemoizationScheme(theta=0.5)
        replacements = apply_memoization(stack, old, stats)
        try:
            swap_scheme(stack, replacements, old, new, stats)
            assert isinstance(stack.layer0, MemoizedRecurrentLayer)
            # The wrapper now carries the new threshold.
            assert stack.layer0._phase_predictors[0].theta == 0.5
            stack(x)  # still serves
        finally:
            restore(replacements)
        assert isinstance(stack.layer0, LSTMLayer)

    def test_failed_swap_rolls_back_to_old_scheme(self, rng):
        stack = RNNStack([LSTMLayer(5, 6, rng=rng), GRULayer(6, 4, rng=rng)])
        x = smooth_inputs(rng)
        stats = ReuseStats()
        old = MemoizationScheme(theta=0.05)
        bad = MemoizationScheme(
            layer_thetas=_SecondLayerNegative("layer1")
        )
        replacements = apply_memoization(stack, old, stats)
        try:
            with pytest.raises(ValueError, match="non-negative"):
                swap_scheme(stack, replacements, old, bad, stats)
            # Still wrapped, still under the old threshold, still serving.
            assert isinstance(stack.layer0, MemoizedRecurrentLayer)
            assert isinstance(stack.layer1, MemoizedRecurrentLayer)
            assert stack.layer0._phase_predictors[0].theta == 0.05
            stack(x)
        finally:
            restore(replacements)
        assert isinstance(stack.layer0, LSTMLayer)
        assert isinstance(stack.layer1, GRULayer)

    def test_swap_updates_caller_list_in_place(self, rng):
        stack = RNNStack([LSTMLayer(5, 6, rng=rng)])
        stats = ReuseStats()
        old = MemoizationScheme(theta=0.05)
        replacements = apply_memoization(stack, old, stats)
        handle = replacements
        swap_scheme(stack, replacements, old, old.with_theta(0.2), stats)
        assert handle is replacements
        restore(handle)
        assert isinstance(stack.layer0, LSTMLayer)
