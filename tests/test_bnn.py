"""Tests for the BinaryGate mirror (paper Figure 9)."""

import numpy as np
import pytest

from repro.core.binarization import pack_signs
from repro.core.bnn import BinaryGate
from repro.metrics.correlation import pearson
from repro.nn.lstm import LSTMCell

from helpers import ReferenceBinaryGate, binarize, binary_dot


@pytest.fixture
def rng():
    return np.random.default_rng(19)


class TestConstruction:
    def test_mirrors_concatenated_weights(self, rng):
        w_x = rng.standard_normal((4, 3))
        w_h = rng.standard_normal((4, 5))
        gate = ReferenceBinaryGate(w_x, w_h)
        np.testing.assert_array_equal(
            gate.weights_bin, binarize(np.concatenate([w_x, w_h], axis=1))
        )
        assert gate.n_bits == 8
        assert gate.neurons == 4

    def test_rejects_mismatched_rows(self, rng):
        with pytest.raises(ValueError):
            BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((5, 3)))

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            BinaryGate(rng.standard_normal(4), rng.standard_normal((4, 3)))

    def test_storage_bits(self, rng):
        gate = BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((4, 5)))
        assert gate.storage_bits == 4 * 8


class TestEvaluate:
    def test_matches_reference_dot(self, rng):
        w_x = rng.standard_normal((6, 4))
        w_h = rng.standard_normal((6, 6))
        gate = ReferenceBinaryGate(w_x, w_h)
        x = rng.standard_normal((2, 4))
        h = rng.standard_normal((2, 6))
        expected = binary_dot(
            gate.weights_bin, binarize(np.concatenate([x, h], axis=-1))
        )
        np.testing.assert_array_equal(gate.evaluate(x, h), expected)

    def test_packed_path_equivalent(self, rng):
        """Single-word operand: the engine's popcount kernel equals the
        ±1 matmul reference."""
        gate = ReferenceBinaryGate(rng.standard_normal((6, 4)), rng.standard_normal((6, 7)))
        x = rng.standard_normal((3, 4))
        h = rng.standard_normal((3, 7))
        packed = gate.evaluate_packed(pack_signs(np.concatenate([x, h], axis=-1)))
        np.testing.assert_array_equal(gate.evaluate(x, h), packed)

    def test_evaluate_packed_matches_reference_multi_word(self, rng):
        """A stacked 4 x 96 phase over a 1600-bit (25-word) operand: the
        popcount kernel on the word-major packed weights equals the ±1
        matmul on the lazily unpacked ``weights_bin``."""
        w_x = rng.standard_normal((4 * 96, 700))
        w_h = rng.standard_normal((4 * 96, 900))
        gate = ReferenceBinaryGate(w_x, w_h)
        np.testing.assert_array_equal(
            gate.weights_bin, binarize(np.concatenate([w_x, w_h], axis=1))
        )
        operand = np.concatenate(
            [rng.standard_normal((16, 700)), rng.standard_normal((16, 900))], axis=-1
        )
        expected = binary_dot(gate.weights_bin, binarize(operand))
        np.testing.assert_array_equal(gate.evaluate_packed(pack_signs(operand)), expected)

    def test_wrong_operand_width_raises(self, rng):
        gate = ReferenceBinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            gate.evaluate(rng.standard_normal((1, 3)), rng.standard_normal((1, 4)))

    def test_output_is_integer_valued(self, rng):
        gate = BinaryGate(rng.standard_normal((4, 3)), rng.standard_normal((4, 5)))
        out = gate.evaluate_packed(pack_signs(rng.standard_normal((2, 8))))
        assert out.dtype == np.int32


class TestDotProductPreservation:
    """Anderson & Berg's property the predictor relies on (§3.1.2)."""

    def test_bnn_correlates_with_full_precision(self, rng):
        """Pooled correlation should be clearly positive on a real gate."""
        cell = LSTMCell(24, 32, rng=rng)
        w_x, w_h, _ = cell.gate_weights("i")
        gate = BinaryGate(w_x, w_h)
        samples_full = []
        samples_bin = []
        for _ in range(200):
            x = rng.standard_normal((1, 24))
            h = np.tanh(rng.standard_normal((1, 32)))
            samples_full.append((x @ w_x.T + h @ w_h.T).ravel())
            operand = pack_signs(np.concatenate([x, h], axis=-1))
            samples_bin.append(gate.evaluate_packed(operand).ravel().astype(float))
        r = pearson(np.concatenate(samples_full), np.concatenate(samples_bin))
        assert r > 0.5, f"expected strong BNN/RNN correlation, got {r:.3f}"
