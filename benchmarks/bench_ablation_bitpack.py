"""Ablation: bit-packed XNOR/popcount vs ±1-matmul BNN evaluation.

This measures the functional simulator itself (all paths are bit-exact;
the hardware argument for XNOR/popcount is §2.2).  The geometry is the
one the engine actually runs: a whole LSTM gate phase stacked along the
neuron axis (4 x 320 neurons at EESEN's widths), evaluated on a batch of
operands.  Two paths are compared:

- the ±1 int matmul reference (``BinaryGate.evaluate``, i.e.
  ``binary_dot``),
- the engine's hot path: the operand packed once via ``pack_signs`` and
  fed to ``BinaryGate.evaluate_packed`` — exactly what
  ``MemoizedRecurrentLayer`` does per phase timestep.
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


def test_bnn_matmul_path(benchmark, phase_operands):
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    result = benchmark(gate.evaluate, x, h)
    assert result.shape == (BATCH, GATES * NEURONS)


def test_bnn_prepacked_engine_path(benchmark, phase_operands):
    """The engine's kernel: pack once, popcount the phase."""
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    operand = np.concatenate([x, h], axis=-1)

    def engine_step():
        return gate.evaluate_packed(pack_signs(operand))

    result = benchmark(engine_step)
    assert result.shape == (BATCH, GATES * NEURONS)


def test_paths_agree(benchmark, phase_operands):
    w_x, w_h, x, h = phase_operands
    gate = BinaryGate(w_x, w_h)
    operand = np.concatenate([x, h], axis=-1)

    def both():
        return gate.evaluate(x, h), gate.evaluate_packed(pack_signs(operand))

    plain, packed = benchmark.pedantic(both, rounds=1, iterations=1)
    np.testing.assert_array_equal(plain, packed)
