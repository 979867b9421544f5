"""Gradient checks and behavioural tests for the peephole LSTM."""

import numpy as np
import pytest

from repro.nn.activations import sigmoid, tanh
from repro.nn.lstm import LSTM_GATES, LSTMCell, LSTMLayer

from helpers import assert_grad_close, gate_block, numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestCellForward:
    def test_step_shapes(self, rng):
        cell = LSTMCell(4, 6, rng=rng)
        x = rng.standard_normal((2, 4))
        h, c, cache = cell.step(
            x, cell.project_inputs(x), np.zeros((2, 6)), np.zeros((2, 6))
        )
        assert h.shape == (2, 6) and c.shape == (2, 6)
        assert set(cache) >= {"i", "f", "g", "o", "c"}

    def test_matches_reference_equations(self, rng):
        """Step must compute exactly Figure 4 of the paper."""
        cell = LSTMCell(3, 5, rng=rng, peephole=True)
        x = rng.standard_normal((1, 3))
        h_prev = rng.standard_normal((1, 5))
        c_prev = rng.standard_normal((1, 5))
        h, c, _ = cell.step(x, cell.project_inputs(x), h_prev, c_prev)

        def gate(name):
            w_x, w_h, b = cell.gate_weights(name)
            return x @ w_x.T + h_prev @ w_h.T + b

        i = sigmoid(gate("i") + cell.p_i.value * c_prev)
        f = sigmoid(gate("f") + cell.p_f.value * c_prev)
        g = tanh(gate("g"))
        c_ref = f * c_prev + i * g
        o = sigmoid(gate("o") + cell.p_o.value * c_ref)
        h_ref = o * tanh(c_ref)
        np.testing.assert_allclose(c, c_ref)
        np.testing.assert_allclose(h, h_ref)

    def test_preacts_hook_substitutes_dot_products(self, rng):
        cell = LSTMCell(3, 5, rng=rng)
        x = rng.standard_normal((1, 3))
        h_prev = rng.standard_normal((1, 5))
        c_prev = rng.standard_normal((1, 5))
        xw = cell.project_inputs(x)
        pre = cell.gate_preacts(xw, h_prev)
        h_direct, c_direct, _ = cell.step(x, xw, h_prev, c_prev)
        h_hooked, c_hooked, _ = cell.step(x, xw, h_prev, c_prev, preacts=pre)
        np.testing.assert_allclose(h_direct, h_hooked)
        np.testing.assert_allclose(c_direct, c_hooked)

    def test_forget_bias_applied(self, rng):
        cell = LSTMCell(3, 5, rng=rng, forget_bias=1.0)
        param, rows = gate_block(cell, "b_f")
        assert np.all(param.value[rows] == 1.0)

    def test_gate_weights_unknown_gate(self, rng):
        with pytest.raises(KeyError):
            LSTMCell(3, 5, rng=rng).gate_weights("q")

    def test_no_peephole_has_no_p_params(self, rng):
        cell = LSTMCell(3, 5, rng=rng, peephole=False)
        assert not any(n.startswith("p_") for n, _ in cell.named_parameters())

    def test_gate_names(self, rng):
        assert LSTMCell(3, 5, rng=rng).gate_names == LSTM_GATES


class TestLayerForward:
    def test_output_shape(self, rng):
        layer = LSTMLayer(4, 6, rng=rng)
        assert layer(rng.standard_normal((2, 7, 4))).shape == (2, 7, 6)

    def test_rejects_non_3d(self, rng):
        with pytest.raises(ValueError):
            LSTMLayer(4, 6, rng=rng)(rng.standard_normal((7, 4)))

    def test_state_carries_across_time(self, rng):
        """Output at t must depend on inputs before t."""
        layer = LSTMLayer(4, 6, rng=rng)
        x = rng.standard_normal((1, 5, 4))
        base = layer(x)
        perturbed = x.copy()
        perturbed[0, 0, :] += 1.0
        out = layer(perturbed)
        assert not np.allclose(base[0, -1], out[0, -1])

    def test_initial_state_used(self, rng):
        layer = LSTMLayer(4, 6, rng=rng)
        x = rng.standard_normal((1, 3, 4))
        h0 = rng.standard_normal((1, 6))
        c0 = rng.standard_normal((1, 6))
        assert not np.allclose(layer(x), layer(x, h0=h0, c0=c0))

    def test_deterministic(self, rng):
        layer = LSTMLayer(4, 6, rng=rng)
        x = rng.standard_normal((2, 5, 4))
        np.testing.assert_array_equal(layer(x), layer(x))


@pytest.mark.parametrize("peephole", [True, False])
class TestLayerGradients:
    """Finite-difference validation of the full BPTT pass."""

    def _setup(self, rng, peephole):
        layer = LSTMLayer(3, 4, rng=rng, peephole=peephole)
        x = rng.standard_normal((2, 4, 3))
        probe = rng.standard_normal((2, 4, 4))
        return layer, x, probe

    def test_input_gradient(self, rng, peephole):
        layer, x, probe = self._setup(rng, peephole)

        def loss(v):
            return float(np.sum(layer.forward(v) * probe))

        layer.forward(x, cache=True)
        analytic = layer.backward(probe)
        assert_grad_close(analytic, numeric_grad(loss, x), rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize("pname", ["w_ix", "w_fh", "w_gx", "w_oh", "b_i", "b_g"])
    def test_weight_gradients(self, rng, peephole, pname):
        """Each per-gate weight is its gate's row block of a stacked parameter."""
        layer, x, probe = self._setup(rng, peephole)
        param, rows = gate_block(layer.cell, pname)

        def loss(w):
            saved = param.value[rows].copy()
            param.value[rows] = w
            out = float(np.sum(layer.forward(x) * probe))
            param.value[rows] = saved
            return out

        layer.forward(x, cache=True)
        layer.backward(probe)
        assert_grad_close(
            param.grad[rows],
            numeric_grad(loss, param.value[rows].copy()),
            rtol=1e-3,
            atol=1e-6,
        )

    def test_peephole_gradients(self, rng, peephole):
        if not peephole:
            pytest.skip("no peepholes in this configuration")
        layer, x, probe = self._setup(rng, peephole)
        # Non-zero peepholes so the gradient path is exercised.
        for name in ("p_i", "p_f", "p_o"):
            getattr(layer.cell, name).value += 0.3
        for name in ("p_i", "p_f", "p_o"):
            param = getattr(layer.cell, name)

            def loss(w, param=param):
                saved = param.value
                param.value = w
                out = float(np.sum(layer.forward(x) * probe))
                param.value = saved
                return out

            layer.cell.zero_grad()
            layer.forward(x, cache=True)
            layer.backward(probe)
            assert_grad_close(
                param.grad,
                numeric_grad(loss, param.value.copy()),
                rtol=1e-3,
                atol=1e-6,
            )

    def test_backward_before_forward_raises(self, rng, peephole):
        layer = LSTMLayer(3, 4, rng=rng, peephole=peephole)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2, 4)))
