"""Tests for the Elman RNN cell/layer, bidirectional wrappers and stacks."""

import numpy as np
import pytest

from repro.nn.cells import GatePhase
from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.rnn import RNN_GATES, Bidirectional, RNNCell, RNNLayer, RNNStack

from helpers import assert_grad_close, numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestRNNCell:
    def test_gate_and_phase_exports(self):
        assert RNNCell.GATES == RNN_GATES == ("h",)
        assert RNNCell.PHASES == (GatePhase(0, ("h",), "h_prev"),)

    def test_step_shapes_and_bounds(self, rng):
        cell = RNNCell(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        h, cache = cell.step(x, cell.project_inputs(x), np.zeros((2, 3)))
        assert h.shape == (2, 3)
        assert np.all(np.abs(h) <= 1.0)  # tanh-bounded
        assert cache["h"] is h

    def test_invalid_sizes_raise(self):
        with pytest.raises(ValueError):
            RNNCell(0, 3)
        with pytest.raises(ValueError):
            RNNCell(3, -1)

    def test_step_hooked_matches_step(self, rng):
        """The hooked inference path is bitwise identical to the
        training-time step."""
        cell = RNNCell(4, 3, rng=rng)
        x = rng.standard_normal((2, 4))
        h_prev = rng.standard_normal((2, 3))
        xw = cell.project_inputs(x)
        plain, _ = cell.step(x, xw, h_prev)
        hooked, state = cell.step_hooked(x, xw, h_prev)
        np.testing.assert_array_equal(plain, hooked)
        np.testing.assert_array_equal(hooked, state)

    def test_hook_sees_single_phase(self, rng):
        cell = RNNCell(4, 3, rng=rng)
        seen = []

        class Observer:
            def on_gates(self, cell, phase, x, h, preacts):
                seen.append((phase, preacts.shape))
                return preacts

        x = rng.standard_normal((2, 4))
        cell.step_hooked(x, cell.project_inputs(x), np.zeros((2, 3)), hook=Observer())
        assert seen == [(cell.PHASES[0], (2, 3))]

    def test_hook_substitution_changes_output(self, rng):
        cell = RNNCell(4, 3, rng=rng)

        class Zeroer:
            def on_gates(self, cell, phase, x, h, preacts):
                return np.zeros_like(preacts)

        x = rng.standard_normal((2, 4))
        h, _ = cell.step_hooked(x, cell.project_inputs(x), np.zeros((2, 3)), hook=Zeroer())
        np.testing.assert_array_equal(h, np.tanh(np.zeros((2, 3)) + cell.b.value))


class TestRNNLayer:
    def test_forward_shape(self, rng):
        layer = RNNLayer(4, 3, rng=rng)
        assert layer(rng.standard_normal((2, 5, 4))).shape == (2, 5, 3)

    def test_rejects_non_3d(self, rng):
        with pytest.raises(ValueError):
            RNNLayer(4, 3, rng=rng)(rng.standard_normal((5, 4)))

    def test_step_interface_matches_forward(self, rng):
        layer = RNNLayer(4, 3, rng=rng)
        x = rng.standard_normal((2, 6, 4))
        full = layer(x)
        state = layer.start_state(2)
        for t in range(6):
            h, state = layer.step(x[:, t, :], state)
            np.testing.assert_array_equal(full[:, t, :], h)

    def test_gradient(self, rng):
        layer = RNNLayer(3, 4, rng=rng)
        x = rng.standard_normal((2, 5, 3))
        probe = rng.standard_normal((2, 5, 4))

        def loss(v):
            return float(np.sum(layer.forward(v) * probe))

        layer.forward(x, cache=True)
        analytic = layer.backward(probe)
        assert_grad_close(analytic, numeric_grad(loss, x), rtol=1e-4, atol=1e-7)

    def test_parameter_gradients(self, rng):
        """Weight grads check out against numeric differentiation."""
        layer = RNNLayer(3, 2, rng=rng)
        x = rng.standard_normal((1, 4, 3))
        probe = rng.standard_normal((1, 4, 2))
        layer.forward(x, cache=True)
        layer.zero_grad()
        layer.backward(probe)
        for name, param in layer.named_parameters():
            original = param.value.copy()

            def loss(v, param=param, original=original):
                param.value[...] = v
                try:
                    return float(np.sum(layer.forward(x) * probe))
                finally:
                    param.value[...] = original

            numeric = numeric_grad(loss, original.copy())
            assert_grad_close(param.grad, numeric, rtol=1e-3, atol=1e-6)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            RNNLayer(3, 2, rng=rng).backward(np.zeros((1, 2, 2)))

    def test_rnn_bidirectional_factory(self, rng):
        bi = Bidirectional.rnn(4, 3, rng=rng)
        assert bi(rng.standard_normal((1, 4, 4))).shape == (1, 4, 6)

    def test_stacks_with_other_cells(self, rng):
        stack = RNNStack([LSTMLayer(4, 5, rng=rng), RNNLayer(5, 3, rng=rng)])
        assert stack(rng.standard_normal((2, 6, 4))).shape == (2, 6, 3)


class TestBidirectional:
    def test_output_concatenates_directions(self, rng):
        bi = Bidirectional.lstm(4, 3, rng=rng)
        out = bi(rng.standard_normal((2, 5, 4)))
        assert out.shape == (2, 5, 6)
        assert bi.output_size == 6

    def test_backward_direction_sees_future(self, rng):
        """Perturbing the last input must change the first backward output."""
        bi = Bidirectional.lstm(4, 3, rng=rng)
        x = rng.standard_normal((1, 5, 4))
        base = bi(x)
        perturbed = x.copy()
        perturbed[0, -1, :] += 1.0
        out = bi(perturbed)
        # Forward half at t=0 unchanged; backward half at t=0 changed.
        np.testing.assert_allclose(base[0, 0, :3], out[0, 0, :3])
        assert not np.allclose(base[0, 0, 3:], out[0, 0, 3:])

    def test_gru_factory(self, rng):
        bi = Bidirectional.gru(4, 3, rng=rng)
        assert bi(rng.standard_normal((1, 4, 4))).shape == (1, 4, 6)

    def test_mismatched_layers_raise(self, rng):
        with pytest.raises(ValueError):
            Bidirectional(LSTMLayer(4, 3, rng=rng), LSTMLayer(4, 5, rng=rng))
        with pytest.raises(ValueError):
            Bidirectional(LSTMLayer(4, 3, rng=rng), LSTMLayer(5, 3, rng=rng))

    def test_gradient(self, rng):
        bi = Bidirectional.lstm(3, 2, rng=rng)
        x = rng.standard_normal((1, 4, 3))
        probe = rng.standard_normal((1, 4, 4))

        def loss(v):
            return float(np.sum(bi.forward(v) * probe))

        bi.forward(x, cache=True)
        analytic = bi.backward(probe)
        assert_grad_close(analytic, numeric_grad(loss, x), rtol=1e-3, atol=1e-6)


class TestRNNStack:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            RNNStack([])

    def test_size_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="expects input size"):
            RNNStack([LSTMLayer(4, 6, rng=rng), GRULayer(5, 3, rng=rng)])

    def test_mixed_stack_forward(self, rng):
        stack = RNNStack(
            [
                LSTMLayer(4, 6, rng=rng),
                GRULayer(6, 5, rng=rng),
                Bidirectional.lstm(5, 2, rng=rng),
            ]
        )
        out = stack(rng.standard_normal((2, 7, 4)))
        assert out.shape == (2, 7, 4)
        assert stack.output_size == 4

    def test_layers_property_order(self, rng):
        layers = [LSTMLayer(4, 6, rng=rng), GRULayer(6, 5, rng=rng)]
        stack = RNNStack(layers)
        assert stack.layers == layers

    def test_gradient_through_stack(self, rng):
        stack = RNNStack([LSTMLayer(3, 4, rng=rng), GRULayer(4, 2, rng=rng)])
        x = rng.standard_normal((1, 3, 3))
        probe = rng.standard_normal((1, 3, 2))

        def loss(v):
            return float(np.sum(stack.forward(v) * probe))

        stack.forward(x, cache=True)
        analytic = stack.backward(probe)
        assert_grad_close(analytic, numeric_grad(loss, x), rtol=1e-3, atol=1e-6)

    def test_parameters_cover_all_layers(self, rng):
        stack = RNNStack([LSTMLayer(3, 4, rng=rng), GRULayer(4, 2, rng=rng)])
        names = {name for name, _ in stack.named_parameters()}
        assert any(name.startswith("layer0.") for name in names)
        assert any(name.startswith("layer1.") for name in names)


class TestBPTTCache:
    """Recurrent layers keep per-timestep BPTT caches only on request."""

    BUILDERS = {
        "lstm": lambda rng: LSTMLayer(3, 4, rng=rng),
        "gru": lambda rng: GRULayer(3, 4, rng=rng),
        "rnn": lambda rng: RNNLayer(3, 4, rng=rng),
        "bidirectional": lambda rng: Bidirectional.gru(3, 2, rng=rng),
        "stack": lambda rng: RNNStack(
            [LSTMLayer(3, 4, rng=rng), Bidirectional.rnn(4, 2, rng=rng)]
        ),
    }

    @staticmethod
    def cell_layers(module):
        if isinstance(module, (LSTMLayer, GRULayer, RNNLayer)):
            return [module]
        return [leaf for child in module.children() for leaf in TestBPTTCache.cell_layers(child)]

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_forward_keeps_no_cache_by_default(self, rng, kind):
        module = self.BUILDERS[kind](rng)
        x = rng.standard_normal((2, 5, 3))
        module.forward(x, cache=True)
        assert all(len(layer._caches) == 5 for layer in self.cell_layers(module))
        module.forward(x)
        assert all(layer._caches == [] for layer in self.cell_layers(module))

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_backward_after_uncached_forward_raises(self, rng, kind):
        module = self.BUILDERS[kind](rng)
        x = rng.standard_normal((2, 5, 3))
        out = module.forward(x, cache=True)
        module.backward(np.ones_like(out))
        module.forward(x)
        with pytest.raises(RuntimeError, match=r"cache=True"):
            module.backward(np.ones_like(out))

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_backward_releases_the_cache(self, rng, kind):
        module = self.BUILDERS[kind](rng)
        out = module.forward(rng.standard_normal((2, 5, 3)), cache=True)
        module.backward(np.ones_like(out))
        assert all(layer._caches == [] for layer in self.cell_layers(module))
        with pytest.raises(RuntimeError, match=r"cache=True"):
            module.backward(np.ones_like(out))

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_cached_and_uncached_outputs_are_bitwise_equal(self, rng, kind):
        module = self.BUILDERS[kind](rng)
        x = rng.standard_normal((2, 5, 3))
        np.testing.assert_array_equal(module.forward(x, cache=True), module.forward(x))
