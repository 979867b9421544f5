"""The stacked-weight cells against the per-gate float64 reference.

Every cell keeps its gates' weights stacked and projects a sequence's
inputs in one GEMM before the time loop; the backward accumulates one
stacked gradient per step.  ``helpers.reference_layer`` computes the
same layer the per-gate, per-timestep way.  The two must agree to
``1e-12`` on outputs, input gradients and every parameter gradient: a
reordered reduction moves the last bits only, while a wrong block or a
wrong transposition gives O(1) errors.
"""

import numpy as np
import pytest

from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.rnn import Bidirectional, RNNLayer

from helpers import reference_layer

RTOL = ATOL = 1e-12

LAYERS = {
    "lstm-peephole": lambda e, h, rng: LSTMLayer(e, h, rng=rng, peephole=True),
    "lstm": lambda e, h, rng: LSTMLayer(e, h, rng=rng, peephole=False),
    "gru": lambda e, h, rng: GRULayer(e, h, rng=rng),
    "rnn": lambda e, h, rng: RNNLayer(e, h, rng=rng),
    "bi-lstm": lambda e, h, rng: Bidirectional.lstm(e, h, rng=rng),
    "bi-gru": lambda e, h, rng: Bidirectional.gru(e, h, rng=rng),
}


@pytest.mark.parametrize("sizes", [(5, 7), (70, 50)], ids=["5x7", "70x50"])
@pytest.mark.parametrize("kind", list(LAYERS))
def test_forward_and_gradients_match_per_gate_reference(kind, sizes):
    inputs, hidden = sizes
    rng = np.random.default_rng(61)
    layer = LAYERS[kind](inputs, hidden, rng)
    # Non-zero biases and peepholes, so every term of the gate math counts.
    for name, param in layer.named_parameters():
        if name.rsplit(".", 1)[-1] in ("b", "p_i", "p_f", "p_o"):
            param.value += 0.5 * rng.standard_normal(param.value.shape)
    x = rng.standard_normal((3, 6, inputs))
    probe = rng.standard_normal((3, 6, getattr(layer, "output_size", hidden)))

    expected_out, expected_dx, expected_grads = reference_layer(layer, x, probe)
    layer.zero_grad()
    out = layer.forward(x, cache=True)
    d_x = layer.backward(probe)

    np.testing.assert_allclose(out, expected_out, rtol=RTOL, atol=ATOL)
    np.testing.assert_allclose(d_x, expected_dx, rtol=RTOL, atol=ATOL)
    params = dict(layer.named_parameters())
    assert set(params) == set(expected_grads)
    for name, param in params.items():
        np.testing.assert_allclose(
            param.grad, expected_grads[name], rtol=RTOL, atol=ATOL, err_msg=name
        )


@pytest.mark.parametrize("kind", ["lstm-peephole", "gru", "rnn"])
def test_gate_views_share_memory_with_the_stacked_parameters(kind):
    cell = LAYERS[kind](4, 6, np.random.default_rng(0)).cell
    for gate in cell.GATES:
        for block, param in zip(cell.gate_weights(gate), (cell.w_x, cell.w_h, cell.b)):
            assert np.shares_memory(block, param.value)
    for phase in cell.PHASES:
        for block, param in zip(cell.stacked_gate_weights(phase.gates), (cell.w_x, cell.w_h)):
            assert np.shares_memory(block, param.value)
            assert block.shape[0] == len(phase.gates) * cell.hidden_size


def test_gate_rows_reject_non_consecutive_gates():
    cell = LSTMLayer(4, 6, rng=np.random.default_rng(0)).cell
    assert cell.gate_rows(("f", "g")) == slice(6, 18)
    with pytest.raises(KeyError):
        cell.gate_rows(("i", "g"))
    with pytest.raises(KeyError):
        cell.gate_rows(("q",))
