"""Pins on the memory a model holds: one copy of its weights until it trains.

A :class:`~repro.nn.module.Parameter` allocates its gradient buffer on
first use, and sign packing (``pack_signs(x, h)``, ``BinaryGate``)
builds no float copy of an operand or of a gate's weights.  So a model
that is built, memoized and run forward holds little beyond its
parameters, and training still computes every bit it did when each
buffer was zero-filled up front.  Footprints are read with
:mod:`tracemalloc`, which counts numpy's data buffers the same way on
every host.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme, apply_memoization
from repro.core.stats import ReuseStats
from repro.models.specs import BENCHMARK_NAMES
from repro.models.zoo import build_benchmark
from repro.nn import GRULayer, LSTMLayer, RNNStack
from repro.nn.module import clone_with_shared_parameters
from repro.nn.optim import Adam


def traced(build):
    """``build()``'s result, the bytes still allocated after it and its
    peak, counting only what it allocated."""
    tracemalloc.start()
    try:
        result = build()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def parameter_bytes(model) -> int:
    return sum(param.value.nbytes for param in model.parameters())


def stack(hidden: int) -> RNNStack:
    rng = np.random.default_rng(0)
    return RNNStack([LSTMLayer(hidden, hidden, rng=rng), GRULayer(hidden, hidden, rng=rng)])


def memoized_forwards(hidden: int):
    """A stack and its memoized weight-sharing clone, each run forward."""
    plain = stack(hidden)
    memo = clone_with_shared_parameters(plain)
    apply_memoization(memo, MemoizationScheme(theta=0.3, predictor="bnn"), ReuseStats())
    inputs = np.random.default_rng(1).standard_normal((4, 8, hidden))
    return plain, memo, plain(inputs), memo(inputs)


class TestInferenceFootprint:
    def test_memoized_inference_holds_about_one_copy_of_the_weights(self):
        memoized_forwards(8)  # imports and first-call caches, untraced
        (plain, *_), current, peak = traced(lambda: memoized_forwards(256))
        params = parameter_bytes(plain)
        assert current <= 1.25 * params, current / params
        assert peak <= 1.6 * params, peak / params

    def test_zero_grad_allocates_no_gradient_buffer(self):
        def build():
            model = stack(256)
            model.zero_grad()
            return model

        model, current, _ = traced(build)
        params = parameter_bytes(model)
        assert current <= 1.05 * params, current / params

    def test_load_state_dict_allocates_only_the_loaded_values(self):
        model = build_benchmark("mnmt", scale="tiny").model
        state = model.state_dict()
        _, current, _ = traced(lambda: model.load_state_dict(state))
        params = parameter_bytes(model)
        assert current <= 1.05 * params, current / params
        for (name, param), value in zip(model.named_parameters(), state.values()):
            np.testing.assert_array_equal(param.value, value, err_msg=name)
            assert not np.shares_memory(param.value, value), name


class TestTrainingStaysBitwise:
    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_lazy_gradients_train_like_preallocated_ones(self, name):
        """One ``compute_loss`` and Adam step from lazily allocated
        gradients equals the same step from buffers all read first."""
        results = []
        for read_first in (False, True):
            benchmark = build_benchmark(name, scale="tiny")
            model = benchmark.model
            if read_first:
                for param in model.parameters():
                    np.testing.assert_array_equal(param.grad, 0.0)
            optimizer = Adam(model.parameters(), lr=benchmark.learning_rate(), clip_norm=5.0)
            model.zero_grad()
            loss = model.compute_loss(benchmark.training_batches(0)[0])
            grads = [param.grad.copy() for param in model.parameters()]
            optimizer.step()
            results.append((loss, grads, [param.value for param in model.parameters()]))
        (lazy_loss, lazy_grads, lazy_values), (loss, grads, values) = results
        assert lazy_loss == loss
        for lazy, eager in zip(lazy_grads, grads):
            np.testing.assert_array_equal(lazy, eager)
        for lazy, eager in zip(lazy_values, values):
            np.testing.assert_array_equal(lazy, eager)
