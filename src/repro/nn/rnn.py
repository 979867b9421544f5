"""Vanilla (Elman) RNN cell plus deep and bidirectional composition.

The paper's benchmark networks range from a single LSTM layer (IMDB) to a
10-layer bidirectional LSTM (EESEN); these wrappers compose the cell
layers from :mod:`repro.nn.lstm` / :mod:`repro.nn.gru` /
:class:`RNNLayer` into those shapes while keeping every underlying cell
reachable for the memoization engine.

:class:`RNNCell` is the smallest :class:`~repro.nn.cells.GatedCell`: a
single tanh "gate" named ``h`` in one phase — useful both as a network
building block and as the minimal exercise of the ``MemoHook`` seam.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.activations import tanh
from repro.nn.cells import NO_CACHE, GatedCell, GatePhase, MemoHook
from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.module import Module

Array = np.ndarray

#: The Elman cell has a single gate, named after its output.
RNN_GATES: Tuple[str, ...] = ("h",)


class RNNCell(GatedCell):
    """A single Elman RNN cell::

        h_t = tanh(W_hx x_t + W_hh h_{t-1} + b_h)

    The single gate's blocks are the whole stacked ``w_x``, ``w_h`` and
    ``b``.
    """

    GATES = RNN_GATES
    PHASES = (GatePhase(0, RNN_GATES, "h_prev"),)

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self._init_gate_weights(rng)

    # -- forward -------------------------------------------------------------

    def gate_preacts(self, xw: Array, h_prev: Array) -> Dict[str, Array]:
        """Dict view of the single gate's pre-activation."""
        return {"h": self.phase_preacts(RNN_GATES, xw, h_prev)}

    def step(
        self,
        x: Array,
        xw: Array,
        h_prev: Array,
        preacts: Optional[Dict[str, Array]] = None,
    ) -> Tuple[Array, dict]:
        """One training timestep over the projected input row ``xw``;
        returns ``(h_t, cache)``."""
        if preacts is None:
            preacts = self.gate_preacts(xw, h_prev)
        h = tanh(preacts["h"] + self.b.value)
        cache = {"x": x, "h_prev": h_prev, "h": h}
        return h, cache

    def step_hooked(
        self,
        x: Array,
        xw: Array,
        state: Array,
        hook: Optional[MemoHook] = None,
    ) -> Tuple[Array, Array]:
        """One inference timestep over the stacked (single-gate) matrix."""
        h_prev = state
        pre = self.phase_preacts(self.GATES, xw, h_prev)
        if hook is not None:
            pre = hook.on_gates(self, self.PHASES[0], x, h_prev, pre)
        h = tanh(pre + self.b.value)
        return h, h

    def backward_step(self, d_h: Array, cache: dict) -> Tuple[Array, Array]:
        """Backward through one timestep -> ``(d_x, d_h_prev)``."""
        x, h_prev, h = cache["x"], cache["h_prev"], cache["h"]
        d_a = d_h * (1.0 - h * h)
        self.w_x.grad += d_a.T @ x
        self.w_h.grad += d_a.T @ h_prev
        self.b.grad += d_a.sum(axis=0)
        return d_a @ self.w_x.value, d_a @ self.w_h.value


class RNNLayer(Module):
    """Runs an :class:`RNNCell` over a batch of sequences (B, T, E)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.cell = RNNCell(input_size, hidden_size, rng=rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self._caches: List[dict] = []

    def forward(
        self, x: Array, h0: Optional[Array] = None, cache: bool = False
    ) -> Array:
        """Full-sequence forward; ``cache=True`` keeps the BPTT cache."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, E) input, got shape {x.shape}")
        batch, steps, _ = x.shape
        h = h0 if h0 is not None else np.zeros((batch, self.hidden_size))
        self._caches = []
        outputs = np.empty((batch, steps, self.hidden_size))
        xw = self.cell.project_inputs(x)
        for t in range(steps):
            h, step_cache = self.cell.step(x[:, t, :], xw[:, t, :], h)
            if cache:
                self._caches.append(step_cache)
            outputs[:, t, :] = h
        return outputs

    __call__ = forward

    # -- stepping interface (inference-time) ---------------------------------

    def start_state(self, batch: int) -> Array:
        """Fresh hidden state for a new sequence."""
        return np.zeros((batch, self.hidden_size))

    def step(
        self,
        x_t: Array,
        state: Array,
        hook: Optional[MemoHook] = None,
    ) -> Tuple[Array, Array]:
        """One inference step (projects the one input row); returns
        ``(h_t, new_state)``."""
        return self.cell.step_hooked(x_t, self.cell.project_inputs(x_t), state, hook=hook)

    def backward(self, grad_out: Array) -> Array:
        caches, self._caches = self._caches, []
        if not caches:
            raise RuntimeError(NO_CACHE)
        batch = grad_out.shape[0]
        steps = len(caches)
        d_h = np.zeros((batch, self.hidden_size))
        d_x = np.empty((batch, steps, self.input_size))
        for t in reversed(range(steps)):
            d_h_total = d_h + grad_out[:, t, :]
            d_x_t, d_h = self.cell.backward_step(d_h_total, caches[t])
            d_x[:, t, :] = d_x_t
        return d_x


RecurrentLayer = Union[LSTMLayer, GRULayer, RNNLayer]


class Bidirectional(Module):
    """Wraps two recurrent layers into a bidirectional layer.

    The forward layer processes ``x_1 .. x_N`` and the backward layer
    ``x_N .. x_1``; their hidden states are concatenated per timestep, so
    the output feature size is ``2 * hidden_size``.
    """

    def __init__(self, forward_layer: RecurrentLayer, backward_layer: RecurrentLayer):
        super().__init__()
        if forward_layer.hidden_size != backward_layer.hidden_size:
            raise ValueError("forward/backward hidden sizes must match")
        if forward_layer.input_size != backward_layer.input_size:
            raise ValueError("forward/backward input sizes must match")
        self.fwd = forward_layer
        self.bwd = backward_layer
        self.input_size = forward_layer.input_size
        self.hidden_size = forward_layer.hidden_size
        self.output_size = 2 * forward_layer.hidden_size

    @classmethod
    def lstm(
        cls,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
        peephole: bool = True,
    ) -> "Bidirectional":
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            LSTMLayer(input_size, hidden_size, rng=rng, peephole=peephole),
            LSTMLayer(input_size, hidden_size, rng=rng, peephole=peephole),
        )

    @classmethod
    def gru(
        cls,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "Bidirectional":
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            GRULayer(input_size, hidden_size, rng=rng),
            GRULayer(input_size, hidden_size, rng=rng),
        )

    @classmethod
    def rnn(
        cls,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "Bidirectional":
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(
            RNNLayer(input_size, hidden_size, rng=rng),
            RNNLayer(input_size, hidden_size, rng=rng),
        )

    def forward(self, x: Array, cache: bool = False) -> Array:
        """Both directions' hidden states; ``cache`` reaches both layers."""
        out_f = self.fwd(x, cache=cache)
        out_b = self.bwd(x[:, ::-1, :], cache=cache)[:, ::-1, :]
        return np.concatenate([out_f, out_b], axis=-1)

    __call__ = forward

    def backward(self, grad_out: Array) -> Array:
        hidden = self.hidden_size
        d_f = self.fwd.backward(grad_out[:, :, :hidden])
        d_b = self.bwd.backward(grad_out[:, ::-1, hidden:])[:, ::-1, :]
        return d_f + d_b


class RNNStack(Module):
    """A stack of recurrent layers applied in sequence (a "deep RNN")."""

    def __init__(self, layers: Sequence[Union[RecurrentLayer, Bidirectional]]):
        super().__init__()
        if not layers:
            raise ValueError("RNNStack needs at least one layer")
        self.num_layers = len(layers)
        for idx, layer in enumerate(layers):
            expected = getattr(layer, "input_size")
            if idx > 0:
                prev_out = _output_size(layers[idx - 1])
                if expected != prev_out:
                    raise ValueError(
                        f"layer {idx} expects input size {expected} but layer "
                        f"{idx - 1} produces {prev_out}"
                    )
            setattr(self, f"layer{idx}", layer)

    @property
    def layers(self) -> List[Union[RecurrentLayer, Bidirectional]]:
        return [getattr(self, f"layer{idx}") for idx in range(self.num_layers)]

    @property
    def output_size(self) -> int:
        return _output_size(self.layers[-1])

    def forward(self, x: Array, cache: bool = False) -> Array:
        """The last layer's output; ``cache`` reaches every layer."""
        out = x
        for layer in self.layers:
            out = layer(out, cache=cache)
        return out

    __call__ = forward

    def backward(self, grad_out: Array) -> Array:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def _output_size(layer: Union[RecurrentLayer, Bidirectional]) -> int:
    return getattr(layer, "output_size", None) or layer.hidden_size
