"""Shared test utilities: finite-difference gradient checking and the
per-gate memoization reference the engine is compared against."""

from __future__ import annotations

from typing import Callable

import numpy as np

Array = np.ndarray


def numeric_grad(fn: Callable[[Array], float], x: Array, eps: float = 1e-6) -> Array:
    """Central-difference gradient of a scalar function at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + eps
        plus = fn(x)
        flat[idx] = original - eps
        minus = fn(x)
        flat[idx] = original
        grad_flat[idx] = (plus - minus) / (2.0 * eps)
    return grad


def assert_grad_close(
    analytic: Array, numeric: Array, rtol: float = 1e-4, atol: float = 1e-6
) -> None:
    """Assert analytic and numeric gradients agree."""
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


class ReferenceHook:
    """Per-gate reference for :class:`~repro.core.layers.MemoizedRecurrentLayer`.

    A :class:`~repro.nn.cells.MemoHook` that wraps one recurrent layer
    with the engine wrapper's ``start_state``/``step``/``forward``
    contract and runs it through ``layer.step(x, state, hook=self)``,
    deciding reuse the way the engine must but sharing none of its
    machinery:

    - one predictor per *gate* (the engine builds one per stacked phase);
    - the BNN mirror gets the raw operand, so it runs the ±1
      ``binary_dot`` matmul instead of the packed popcount kernel;
    - the memo is a per-gate array updated with ``np.where`` instead of
      a :class:`~repro.core.memo.MemoTable`.

    Same constructor signature as ``wrap_layer``, so a test can
    monkeypatch ``repro.core.engine.wrap_layer`` with this class to run a
    whole model (``memoized``, ``evaluate_memoized``) on the reference.
    """

    def __init__(self, layer, predictor_factory, stats, name="rnn"):
        self.layer = layer
        self.hidden_size = layer.hidden_size
        self.stats = stats
        self.name = name
        self.predictors = {}
        for gate in layer.cell.gate_names:
            w_x, w_h, _ = layer.cell.gate_weights(gate)
            self.predictors[gate] = predictor_factory(w_x, w_h)
        self.memo = {}

    def on_gates(self, cell, phase, x, h, preacts):
        hidden = self.hidden_size
        for i, gate in enumerate(phase.gates):
            block = preacts[:, i * hidden : (i + 1) * hidden]
            predictor = self.predictors[gate]
            operand = np.concatenate([x, h], axis=-1) if predictor.REQUIRES else None
            memo = self.memo.get(gate)
            mask = predictor.predict_many(operand=operand, preacts=block, memo=memo)
            if memo is None:
                mask = np.zeros(block.shape, dtype=bool)
            else:
                block[...] = np.where(mask, memo, block)
            self.memo[gate] = block.copy()
            self.stats.record(self.name, gate, mask)
        return preacts

    def start_state(self, batch: int):
        for predictor in self.predictors.values():
            predictor.begin_sequence(batch)
        self.memo = {}
        return self.layer.start_state(batch)

    def step(self, x_t: Array, state):
        return self.layer.step(x_t, state, hook=self)

    def forward(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        state = self.start_state(batch)
        outputs = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            outputs[:, t, :], state = self.step(x[:, t, :], state)
        return outputs

    __call__ = forward
