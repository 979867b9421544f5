"""Gradient checks and behavioural tests for the GRU."""

import numpy as np
import pytest

from repro.nn.activations import sigmoid, tanh
from repro.nn.gru import GRU_GATES, GRUCell, GRULayer

from helpers import assert_grad_close, gate_block, numeric_grad


@pytest.fixture
def rng():
    return np.random.default_rng(5)


class TestCellForward:
    def test_step_shapes(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        x = rng.standard_normal((2, 4))
        h, cache = cell.step(x, cell.project_inputs(x), np.zeros((2, 6)))
        assert h.shape == (2, 6)
        assert set(cache) >= {"z", "r", "g"}

    def test_matches_reference_equations(self, rng):
        cell = GRUCell(3, 5, rng=rng)
        x = rng.standard_normal((1, 3))
        h_prev = rng.standard_normal((1, 5))
        h, _ = cell.step(x, cell.project_inputs(x), h_prev)

        def lin(name, rec):
            w_x, w_h, b = cell.gate_weights(name)
            return x @ w_x.T + rec @ w_h.T + b

        z = sigmoid(lin("z", h_prev))
        r = sigmoid(lin("r", h_prev))
        g = tanh(lin("g", r * h_prev))
        h_ref = (1.0 - z) * h_prev + z * g
        np.testing.assert_allclose(h, h_ref)

    def test_preacts_hook(self, rng):
        cell = GRUCell(3, 5, rng=rng)
        x = rng.standard_normal((1, 3))
        h_prev = rng.standard_normal((1, 5))
        xw = cell.project_inputs(x)
        pre = cell.zr_preacts(xw, h_prev)
        z = sigmoid(pre["z"] + cell.gate_weights("z")[2])
        r = sigmoid(pre["r"] + cell.gate_weights("r")[2])
        pre["g"] = cell.g_preact(xw, r * h_prev)
        del z
        h_direct, _ = cell.step(x, xw, h_prev)
        h_hooked, _ = cell.step(x, xw, h_prev, preacts=pre)
        np.testing.assert_allclose(h_direct, h_hooked)

    def test_gate_names(self, rng):
        assert GRUCell(3, 5, rng=rng).gate_names == GRU_GATES

    def test_unknown_gate_raises(self, rng):
        with pytest.raises(KeyError):
            GRUCell(3, 5, rng=rng).gate_weights("o")

    def test_interpolation_property(self, rng):
        """h_t must lie between h_{t-1} and the candidate g (elementwise)."""
        cell = GRUCell(3, 5, rng=rng)
        x = rng.standard_normal((4, 3))
        h_prev = rng.standard_normal((4, 5))
        h, cache = cell.step(x, cell.project_inputs(x), h_prev)
        low = np.minimum(h_prev, cache["g"])
        high = np.maximum(h_prev, cache["g"])
        assert np.all(h >= low - 1e-12) and np.all(h <= high + 1e-12)


class TestLayerForward:
    def test_output_shape(self, rng):
        layer = GRULayer(4, 6, rng=rng)
        assert layer(rng.standard_normal((2, 7, 4))).shape == (2, 7, 6)

    def test_rejects_non_3d(self, rng):
        with pytest.raises(ValueError):
            GRULayer(4, 6, rng=rng)(rng.standard_normal((7, 4)))

    def test_initial_state_used(self, rng):
        layer = GRULayer(4, 6, rng=rng)
        x = rng.standard_normal((1, 3, 4))
        h0 = rng.standard_normal((1, 6))
        assert not np.allclose(layer(x), layer(x, h0=h0))


class TestLayerGradients:
    def _setup(self, rng):
        layer = GRULayer(3, 4, rng=rng)
        x = rng.standard_normal((2, 4, 3))
        probe = rng.standard_normal((2, 4, 4))
        return layer, x, probe

    def test_input_gradient(self, rng):
        layer, x, probe = self._setup(rng)

        def loss(v):
            return float(np.sum(layer.forward(v) * probe))

        layer.forward(x, cache=True)
        analytic = layer.backward(probe)
        assert_grad_close(analytic, numeric_grad(loss, x), rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize(
        "pname", ["w_zx", "w_zh", "w_rx", "w_rh", "w_gx", "w_gh", "b_z", "b_r", "b_g"]
    )
    def test_weight_gradients(self, rng, pname):
        """Each per-gate weight is its gate's row block of a stacked parameter."""
        layer, x, probe = self._setup(rng)
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

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            GRULayer(3, 4, rng=rng).backward(np.zeros((1, 2, 4)))
