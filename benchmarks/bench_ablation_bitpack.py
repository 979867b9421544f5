"""Ablation: bit-packed XNOR/popcount vs ±1-matmul BNN evaluation.

This measures the functional simulator itself (all paths are bit-exact;
the hardware argument for XNOR/popcount is §2.2).  The geometry is the
one the engine actually runs: a whole LSTM gate phase stacked along the
neuron axis (4 x 320 neurons at EESEN's widths), evaluated on a batch of
operands.  Two paths are compared:

- a ±1 int32 matmul of the binarized weights and operands, built
  inline here,
- the engine's hot path: the operand's ``(x, h)`` blocks packed once via
  ``pack_signs(x, h)`` and fed to ``BinaryGate.evaluate_packed`` —
  exactly what ``MemoizedRecurrentLayer`` does per phase timestep.
"""

import numpy as np
import pytest

from repro.core.binarization import pack_signs
from repro.core.bnn import BinaryGate

#: EESEN-like phase geometry: 4 LSTM gates x 320 neurons, 640-bit operands.
GATES, NEURONS, INPUT, RECURRENT = 4, 320, 320, 320
BATCH = 16


@pytest.fixture(scope="module")
def phase_operands():
    rng = np.random.default_rng(0)
    w_x = rng.standard_normal((GATES * NEURONS, INPUT))
    w_h = rng.standard_normal((GATES * NEURONS, RECURRENT))
    x = rng.standard_normal((BATCH, INPUT))
    h = rng.standard_normal((BATCH, RECURRENT))
    return w_x, w_h, x, h


def _signs(values):
    """Eq. 7 as ±1 int32."""
    return np.where(values >= 0, 1, -1).astype(np.int32)


def test_bnn_matmul_path(benchmark, phase_operands):
    w_x, w_h, x, h = phase_operands
    weight_signs = _signs(np.concatenate([w_x, w_h], axis=1))

    def matmul_step():
        return _signs(np.concatenate([x, h], axis=-1)) @ weight_signs.T

    result = benchmark(matmul_step)
    assert result.shape == (BATCH, GATES * NEURONS)


def test_bnn_prepacked_engine_path(benchmark, phase_operands):
    """The engine's kernel: pack once, popcount the phase."""
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)

    def engine_step():
        return gate.evaluate_packed(pack_signs(x, h))

    result = benchmark(engine_step)
    assert result.shape == (BATCH, GATES * NEURONS)


def test_paths_agree(benchmark, phase_operands):
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    operand = np.concatenate([x, h], axis=-1)

    weight_signs = _signs(np.concatenate([w_x, w_h], axis=1))

    def both():
        return _signs(operand) @ weight_signs.T, gate.evaluate_packed(pack_signs(x, h))

    plain, packed = benchmark.pedantic(both, rounds=1, iterations=1)
    np.testing.assert_array_equal(plain, packed)
