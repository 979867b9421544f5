"""Tests for the memoized recurrent layer wrappers."""

import numpy as np
import pytest

from helpers import ReferenceHook
from repro.core.engine import MemoizationScheme
from repro.core.layers import MemoizedRecurrentLayer, wrap_layer
from repro.core.stats import ReuseStats
from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.rnn import RNNLayer


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def smooth_inputs(rng, batch=2, steps=20, dim=6):
    """Slowly drifting inputs (high reuse potential)."""
    base = rng.standard_normal((batch, 1, dim))
    drift = np.cumsum(0.03 * rng.standard_normal((batch, steps, dim)), axis=1)
    return base + drift


def make_scheme(predictor="bnn", theta=0.3, **kwargs):
    return MemoizationScheme(theta=theta, predictor=predictor, **kwargs)


class TestMemoizedLSTM:
    def test_oracle_theta_zero_is_exact(self, rng):
        """Oracle at theta=0 reuses only exactly-equal values, so outputs
        must match the plain layer bit for bit."""
        layer = LSTMLayer(6, 8, rng=rng)
        x = smooth_inputs(rng)
        reference = layer(x)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme("oracle", theta=0.0).make_predictor, stats
        )
        np.testing.assert_array_equal(wrapped(x), reference)

    def test_bnn_bounded_error_on_smooth_input(self, rng):
        layer = LSTMLayer(6, 8, rng=rng)
        x = smooth_inputs(rng)
        reference = layer(x)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme("bnn", theta=0.3).make_predictor, stats
        )
        out = wrapped(x)
        assert stats.reuse_fraction() > 0.05, "smooth input should see reuse"
        # Hidden states are tanh-bounded; errors must stay moderate.
        assert np.abs(out - reference).max() < 1.0

    def test_records_all_four_gates(self, rng):
        layer = LSTMLayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme().make_predictor, stats, name="L"
        )
        wrapped(smooth_inputs(rng))
        assert {gate for (_, gate) in stats.total} == {"i", "f", "g", "o"}
        assert all(layer_name == "L" for (layer_name, _) in stats.total)

    def test_evaluation_counts(self, rng):
        layer = LSTMLayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(layer, make_scheme().make_predictor, stats)
        batch, steps = 2, 20
        wrapped(smooth_inputs(rng, batch=batch, steps=steps))
        assert stats.total_evaluations == batch * steps * 8 * 4

    def test_state_resets_between_forwards(self, rng):
        layer = LSTMLayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(layer, make_scheme().make_predictor, stats)
        x = smooth_inputs(rng)
        first = wrapped(x)
        second = wrapped(x)
        np.testing.assert_array_equal(first, second)

    def test_rejects_non_3d(self, rng):
        wrapped = MemoizedRecurrentLayer(
            LSTMLayer(6, 8, rng=rng), make_scheme().make_predictor, ReuseStats()
        )
        with pytest.raises(ValueError):
            wrapped(rng.standard_normal((6, 8)))

    def test_keeps_no_bptt_cache(self, rng):
        """Memoized evaluation is inference only: ``cache=False`` passes
        through as stacks hand it down, ``cache=True`` is refused."""
        wrapped = MemoizedRecurrentLayer(
            LSTMLayer(6, 8, rng=rng), make_scheme().make_predictor, ReuseStats()
        )
        x = smooth_inputs(rng)
        assert wrapped(x, cache=False).shape == (2, 20, 8)
        with pytest.raises(ValueError, match="BPTT cache"):
            wrapped(x, cache=True)

    def test_step_interface_matches_forward(self, rng):
        layer = LSTMLayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(layer, make_scheme().make_predictor, stats)
        x = smooth_inputs(rng, batch=1, steps=10)
        full = wrapped(x)
        state = wrapped.start_state(1)
        stepped = []
        for t in range(10):
            h, state = wrapped.step(x[:, t, :], state)
            stepped.append(h)
        np.testing.assert_allclose(full[:, -1, :], stepped[-1])


class TestMemoizedGRU:
    def test_oracle_theta_zero_is_exact(self, rng):
        layer = GRULayer(6, 8, rng=rng)
        x = smooth_inputs(rng)
        reference = layer(x)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme("oracle", theta=0.0).make_predictor, stats
        )
        np.testing.assert_array_equal(wrapped(x), reference)

    def test_records_all_three_gates(self, rng):
        layer = GRULayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(layer, make_scheme().make_predictor, stats)
        wrapped(smooth_inputs(rng))
        assert {gate for (_, gate) in stats.total} == {"z", "r", "g"}

    def test_candidate_gate_uses_reset_operand(self, rng):
        """The g-gate predictor must see r*h, not h: with the input-
        similarity predictor and theta tuned so only the recurrent part
        matters, a flipped reset gate changes the decision stream."""
        layer = GRULayer(4, 6, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme("bnn", theta=0.2).make_predictor, stats
        )
        x = smooth_inputs(rng, dim=4)
        out = wrapped(x)
        reference = layer(x)
        assert out.shape == reference.shape

    def test_reuse_increases_with_theta(self, rng):
        x = smooth_inputs(rng)
        fractions = []
        for theta in (0.0, 0.5, 2.0):
            layer = GRULayer(6, 8, rng=np.random.default_rng(31))
            stats = ReuseStats()
            MemoizedRecurrentLayer(layer, make_scheme(theta=theta).make_predictor, stats)(x)
            fractions.append(stats.reuse_fraction())
        assert fractions[0] <= fractions[1] <= fractions[2]


class TestMemoizedRNN:
    def test_oracle_theta_zero_is_exact(self, rng):
        layer = RNNLayer(6, 8, rng=rng)
        x = smooth_inputs(rng)
        reference = layer(x)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme("oracle", theta=0.0).make_predictor, stats
        )
        np.testing.assert_array_equal(wrapped(x), reference)

    def test_records_single_gate(self, rng):
        layer = RNNLayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme().make_predictor, stats, name="R"
        )
        wrapped(smooth_inputs(rng))
        assert set(stats.total) == {("R", "h")}

    def test_bnn_sees_reuse_on_smooth_input(self, rng):
        layer = RNNLayer(6, 8, rng=rng)
        stats = ReuseStats()
        wrapped = MemoizedRecurrentLayer(
            layer, make_scheme("bnn", theta=0.3).make_predictor, stats
        )
        wrapped(smooth_inputs(rng))
        assert stats.reuse_fraction() > 0.05


def _run_wrapped(layer_type, rng_seed, wrapper, predictor, x, hidden=8):
    layer = layer_type(x.shape[-1], hidden, rng=np.random.default_rng(rng_seed))
    stats = ReuseStats()
    wrapped = wrapper(layer, make_scheme(predictor, theta=0.3).make_predictor, stats)
    return wrapped(x), stats


class TestVectorizedScalarEquivalence:
    """The engine's stacked-phase path must be bitwise identical to the
    per-gate scalar reference (:class:`helpers.ReferenceHook`), outputs
    and reuse decisions, for every cell type and predictor."""

    # (input, hidden): a 14-bit BNN operand in one 64-bit word, then
    # 160-bit (3-word) and 194-bit (4-word) operands, so the popcount
    # kernel's per-word accumulation meets the reference's ±1 matmul.
    @pytest.mark.parametrize(
        "sizes", [(6, 8), (70, 90), (130, 64)], ids=["6x8", "70x90", "130x64"]
    )
    @pytest.mark.parametrize("layer_type", [LSTMLayer, GRULayer, RNNLayer])
    @pytest.mark.parametrize("predictor", ["bnn", "oracle", "input"])
    def test_outputs_and_stats_identical(self, rng, layer_type, predictor, sizes):
        inputs, hidden = sizes
        x = smooth_inputs(rng, batch=3, steps=25, dim=inputs)
        vec_out, vec_stats = _run_wrapped(
            layer_type, 31, MemoizedRecurrentLayer, predictor, x, hidden
        )
        ref_out, ref_stats = _run_wrapped(layer_type, 31, ReferenceHook, predictor, x, hidden)
        np.testing.assert_array_equal(vec_out, ref_out)
        assert vec_stats.reused == ref_stats.reused
        assert vec_stats.total == ref_stats.total

    def test_throttle_ablation_also_equivalent(self, rng):
        x = smooth_inputs(rng)

        def run(wrapper):
            layer = LSTMLayer(6, 8, rng=np.random.default_rng(31))
            stats = ReuseStats()
            scheme = MemoizationScheme(theta=0.3, throttle=False)
            return wrapper(layer, scheme.make_predictor, stats)(x), stats

        vec_out, vec_stats = run(MemoizedRecurrentLayer)
        ref_out, ref_stats = run(ReferenceHook)
        np.testing.assert_array_equal(vec_out, ref_out)
        assert vec_stats.reused == ref_stats.reused


class TestWrapLayer:
    def test_dispatch(self, rng):
        stats = ReuseStats()
        factory = make_scheme().make_predictor
        for name, layer in (
            ("a", LSTMLayer(4, 4, rng=rng)),
            ("b", GRULayer(4, 4, rng=rng)),
            ("c", RNNLayer(4, 4, rng=rng)),
        ):
            wrapped = wrap_layer(layer, factory, stats, name)
            assert isinstance(wrapped, MemoizedRecurrentLayer)
            assert wrapped.layer is layer

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            wrap_layer(object(), make_scheme().make_predictor, ReuseStats(), "x")

    def test_weights_are_shared_not_copied(self, rng):
        layer = LSTMLayer(4, 4, rng=rng)
        wrapped = wrap_layer(layer, make_scheme().make_predictor, ReuseStats(), "a")
        assert wrapped.cell is layer.cell


class TestMemoTable:
    def test_substitute_before_begin_sequence_raises(self):
        from repro.core.memo import MemoTable

        table = MemoTable(neurons=4)
        with pytest.raises(RuntimeError, match="begin_sequence was not called"):
            table.substitute(
                np.zeros((1, 4), dtype=bool), np.zeros((1, 4))
            )

    def test_substitute_after_begin_sequence_works(self):
        from repro.core.memo import MemoTable

        table = MemoTable(neurons=3)
        table.begin_sequence(batch=2)
        fresh = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = table.substitute(np.zeros((2, 3), dtype=bool), fresh)
        np.testing.assert_array_equal(out, fresh)

    def test_begin_sequence_recovers_from_misuse(self):
        """After the loud failure, a proper begin_sequence still works."""
        from repro.core.memo import MemoTable

        table = MemoTable(neurons=2)
        with pytest.raises(RuntimeError):
            table.substitute(np.zeros((1, 2), dtype=bool), np.zeros((1, 2)))
        table.begin_sequence(batch=1)
        out = table.substitute(
            np.zeros((1, 2), dtype=bool), np.ones((1, 2))
        )
        np.testing.assert_array_equal(out, np.ones((1, 2)))
