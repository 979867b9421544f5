"""Unit tests for repro.nn.activations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn.activations import (
    get_activation,
    identity,
    relu,
    sigmoid,
    softmax,
    tanh,
)

from helpers import numeric_grad

finite_arrays = arrays(
    np.float64,
    array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=8),
    elements=st.floats(-20, 20, allow_nan=False),
)


class TestSigmoid:
    def test_known_values(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0])), [0.5])
        np.testing.assert_allclose(
            sigmoid(np.array([1.0])), [1.0 / (1.0 + np.exp(-1.0))]
        )

    def test_extreme_inputs_do_not_overflow(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_symmetry(self):
        x = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones_like(x))

    @given(finite_arrays)
    @settings(max_examples=25, deadline=None)
    def test_range(self, x):
        out = sigmoid(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_bitwise_equal_to_two_divide_form(self):
        """One divide per element gives the bits of selecting between
        ``1 / (1 + e)`` and ``e / (1 + e)``, edge values included."""
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array(
            [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 709.0, -709.0,
             745.0, -745.0, 1e4, -1e4, np.inf, -np.inf, np.nan]
        )
        x = np.concatenate(
            [edges, np.random.default_rng(3).standard_normal(200) * 30.0]
        )
        ex = np.exp(-np.abs(x))
        two_divides = np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))
        np.testing.assert_array_equal(
            sigmoid(x).view(np.uint64), two_divides.view(np.uint64)
        )

    def test_grad_matches_numeric(self):
        x = np.linspace(-3, 3, 7)
        y = sigmoid(x)
        analytic = sigmoid.grad_from_output(y)
        numeric = np.array(
            [numeric_grad(lambda v: float(sigmoid(v)), np.array(xi)) for xi in x]
        ).reshape(-1)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5)


class TestTanh:
    def test_known_values(self):
        np.testing.assert_allclose(tanh(np.array([0.0])), [0.0])

    @given(finite_arrays)
    @settings(max_examples=25, deadline=None)
    def test_odd_function(self, x):
        np.testing.assert_allclose(tanh(-x), -tanh(x), atol=1e-12)

    def test_grad_matches_numeric(self):
        x = np.linspace(-2, 2, 9)
        y = tanh(x)
        analytic = tanh.grad_from_output(y)
        numeric = np.array(
            [numeric_grad(lambda v: float(tanh(v)), np.array(xi)) for xi in x]
        ).reshape(-1)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5)


class TestRelu:
    def test_clips_negatives(self):
        np.testing.assert_array_equal(
            relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0]
        )

    def test_grad_is_indicator(self):
        y = relu(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(relu.grad_from_output(y), [0.0, 1.0])


class TestSoftmax:
    def test_sums_to_one(self):
        out = softmax(np.random.default_rng(0).standard_normal((4, 7)))
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4))

    def test_shift_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_handles_large_logits(self):
        out = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-12)

    @given(finite_arrays)
    @settings(max_examples=25, deadline=None)
    def test_always_a_distribution(self, x):
        out = softmax(x)
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)


class TestIdentity:
    def test_passthrough(self):
        x = np.array([1.5, -2.0])
        np.testing.assert_array_equal(identity(x), x)
        np.testing.assert_array_equal(identity.grad_from_output(x), [1.0, 1.0])


class TestRegistry:
    @pytest.mark.parametrize("name", ["sigmoid", "tanh", "relu", "identity", "softmax"])
    def test_lookup(self, name):
        assert get_activation(name).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown activation"):
            get_activation("swish")
