"""Peephole LSTM cell and sequence layer (paper Figure 4, Equations 1-6).

The cell is a :class:`~repro.nn.cells.GatedCell`: it exposes its gate
order (``GATES``), a single-phase decomposition (``PHASES``), stacked
``(4H, E)``/``(4H, H)`` weights and a ``step_hooked`` timestep that
offers the whole batched pre-activation matrix to a
:class:`~repro.nn.cells.MemoHook`, so :mod:`repro.core` can intercept
exactly the dot products the paper's memoization scheme skips: for each
gate, the expensive part of a neuron is ``W_x @ x_t + W_h @ h_{t-1}``;
bias, peephole and activation are applied afterwards by the (cheap)
multi-functional unit.  The layer projects its whole input sequence
(``W_x @ x_t`` for every ``t``) in one GEMM before the time loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.activations import sigmoid, tanh
from repro.nn.cells import NO_CACHE, GatedCell, GatePhase, MemoHook
from repro.nn.initializers import zeros
from repro.nn.module import Module, Parameter

Array = np.ndarray

#: Gate evaluation order used everywhere (matmuls, memo buffers, traces).
LSTM_GATES: Tuple[str, ...] = ("i", "f", "g", "o")

class LSTMCell(GatedCell):
    """A single LSTM cell with optional peephole connections.

    Computations follow the paper exactly::

        i_t = sigmoid(W_ix x_t + W_ih h_{t-1} + p_i * c_{t-1} + b_i)
        f_t = sigmoid(W_fx x_t + W_fh h_{t-1} + p_f * c_{t-1} + b_f)
        g_t = tanh   (W_gx x_t + W_gh h_{t-1}               + b_g)
        c_t = f_t * c_{t-1} + i_t * g_t
        o_t = sigmoid(W_ox x_t + W_oh h_{t-1} + p_o * c_t   + b_o)
        h_t = o_t * tanh(c_t)

    Gate ``k`` of ``GATES`` owns rows ``k*H:(k+1)*H`` of the stacked
    ``w_x``, ``w_h`` and ``b`` (:meth:`~repro.nn.cells.GatedCell.gate_weights`
    returns those blocks as views); the peepholes ``p_i``, ``p_f``,
    ``p_o`` are separate ``(H,)`` parameters.
    """

    GATES = LSTM_GATES
    #: All four gates share the (x_t, h_{t-1}) operand: one phase.
    PHASES = (GatePhase(0, LSTM_GATES, "h_prev"),)

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
        peephole: bool = True,
        forget_bias: float = 1.0,
    ):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.peephole = peephole

        self._init_gate_weights(rng)
        # Bias the forget gate open so gradients flow early in training.
        self.b.value[self.gate_rows(("f",))] += forget_bias
        if peephole:
            for gate in ("i", "f", "o"):
                setattr(self, f"p_{gate}", Parameter(zeros((hidden_size,))))

    # -- forward -------------------------------------------------------------

    def gate_preacts(self, xw: Array, h_prev: Array) -> Dict[str, Array]:
        """The four matmul results ``W_x x + W_h h`` (no bias/peephole).

        Dict view, one column block per gate, of the single phase's
        :meth:`~repro.nn.cells.GatedCell.phase_preacts` for the projected
        input row ``xw``.
        """
        pre = self.phase_preacts(LSTM_GATES, xw, h_prev)
        hidden = self.hidden_size
        return {
            gate: pre[:, k * hidden : (k + 1) * hidden]
            for k, gate in enumerate(LSTM_GATES)
        }

    def step(
        self,
        x: Array,
        xw: Array,
        h_prev: Array,
        c_prev: Array,
        preacts: Optional[Dict[str, Array]] = None,
    ) -> Tuple[Array, Array, dict]:
        """One training timestep.  Shapes: ``x`` (B, E); ``xw`` (B, 4H), the
        row's :meth:`~repro.nn.cells.GatedCell.project_inputs`;
        ``h_prev``/``c_prev`` (B, H).

        Args:
            preacts: optional substitute for the gate matmul results, per
                gate (the engine uses ``step_hooked``'s hook instead).

        Returns:
            ``(h_t, c_t, cache)`` where ``cache`` holds everything the
            backward pass needs.
        """
        if preacts is None:
            preacts = self.gate_preacts(xw, h_prev)
        return self._apply_gates(
            x,
            h_prev,
            c_prev,
            preacts["i"],
            preacts["f"],
            preacts["g"],
            preacts["o"],
        )

    def step_hooked(
        self,
        x: Array,
        xw: Array,
        state: Tuple[Array, Array],
        hook: Optional[MemoHook] = None,
    ) -> Tuple[Array, Tuple[Array, Array]]:
        """One inference timestep over the stacked pre-activation matrix.

        Computes the phase's one recurrent GEMM plus the projected input
        row ``xw`` into a contiguous ``(B, 4H)`` matrix, offers it to
        ``hook`` (the memoization seam), then applies the same gate math
        as :meth:`step` — bitwise equal to it with no hook, or with a hook
        that returns the matrix unchanged.
        """
        h_prev, c_prev = state
        pre = self.phase_preacts(self.GATES, xw, h_prev)
        if hook is not None:
            pre = hook.on_gates(self, self.PHASES[0], x, h_prev, pre)
        hidden = self.hidden_size
        h, c, _ = self._apply_gates(
            x,
            h_prev,
            c_prev,
            pre[:, :hidden],
            pre[:, hidden : 2 * hidden],
            pre[:, 2 * hidden : 3 * hidden],
            pre[:, 3 * hidden :],
        )
        return h, (h, c)

    def _apply_gates(
        self,
        x: Array,
        h_prev: Array,
        c_prev: Array,
        pre_i: Array,
        pre_f: Array,
        pre_g: Array,
        pre_o: Array,
    ) -> Tuple[Array, Array, dict]:
        """Bias/peephole/activation math shared by ``step``/``step_hooked``."""
        hidden = self.hidden_size
        b = self.b.value
        a_i = pre_i + b[:hidden]
        a_f = pre_f + b[hidden : 2 * hidden]
        if self.peephole:
            a_i = a_i + self.p_i.value * c_prev
            a_f = a_f + self.p_f.value * c_prev
        i = sigmoid(a_i)
        f = sigmoid(a_f)
        g = tanh(pre_g + b[2 * hidden : 3 * hidden])
        c = f * c_prev + i * g
        a_o = pre_o + b[3 * hidden :]
        if self.peephole:
            a_o = a_o + self.p_o.value * c
        o = sigmoid(a_o)
        tanh_c = tanh(c)
        h = o * tanh_c
        cache = {
            "x": x,
            "h_prev": h_prev,
            "c_prev": c_prev,
            "i": i,
            "f": f,
            "g": g,
            "o": o,
            "c": c,
            "tanh_c": tanh_c,
        }
        return h, c, cache

    def backward_step(
        self, d_h: Array, d_c: Array, cache: dict
    ) -> Tuple[Array, Array, Array]:
        """Backward through one timestep.

        Args:
            d_h: gradient w.r.t. ``h_t`` (includes the recurrent carry).
            d_c: gradient w.r.t. ``c_t`` carried from timestep ``t+1``.
            cache: the cache produced by :meth:`step`.

        Returns:
            ``(d_x, d_h_prev, d_c_prev)``; parameter grads are accumulated.
        """
        x, h_prev, c_prev = cache["x"], cache["h_prev"], cache["c_prev"]
        i, f, g, o = cache["i"], cache["f"], cache["g"], cache["o"]
        c, tanh_c = cache["c"], cache["tanh_c"]

        d_o = d_h * tanh_c
        d_ao = d_o * o * (1.0 - o)
        d_c_total = d_h * o * (1.0 - tanh_c * tanh_c) + d_c
        if self.peephole:
            d_c_total = d_c_total + d_ao * self.p_o.value

        d_i = d_c_total * g
        d_f = d_c_total * c_prev
        d_g = d_c_total * i
        d_ai = d_i * i * (1.0 - i)
        d_af = d_f * f * (1.0 - f)
        d_ag = d_g * (1.0 - g * g)

        d_c_prev = d_c_total * f
        if self.peephole:
            d_c_prev = d_c_prev + d_ai * self.p_i.value + d_af * self.p_f.value
            self.p_i.grad += (d_ai * c_prev).sum(axis=0)
            self.p_f.grad += (d_af * c_prev).sum(axis=0)
            self.p_o.grad += (d_ao * c).sum(axis=0)

        # Stacked (B, 4H) gradient of every gate's pre-activation: one
        # GEMM per weight gradient and per input gradient.
        d_a = np.concatenate([d_ai, d_af, d_ag, d_ao], axis=1)
        self.w_x.grad += d_a.T @ x
        self.w_h.grad += d_a.T @ h_prev
        self.b.grad += d_a.sum(axis=0)
        return d_a @ self.w_x.value, d_a @ self.w_h.value, d_c_prev


class LSTMLayer(Module):
    """Runs an :class:`LSTMCell` over a batch of sequences (B, T, E)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
        peephole: bool = True,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng, peephole=peephole)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self._caches: List[dict] = []

    def forward(
        self,
        x: Array,
        h0: Optional[Array] = None,
        c0: Optional[Array] = None,
        cache: bool = False,
    ) -> Array:
        """Full-sequence forward; returns hidden states of shape (B, T, H).

        ``cache=True`` keeps every timestep's BPTT cache for
        :meth:`backward`; inference leaves it off and keeps nothing.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, E) input, got shape {x.shape}")
        batch, steps, _ = x.shape
        h = h0 if h0 is not None else np.zeros((batch, self.hidden_size))
        c = c0 if c0 is not None else np.zeros((batch, self.hidden_size))
        self._caches = []
        outputs = np.empty((batch, steps, self.hidden_size))
        xw = self.cell.project_inputs(x)
        for t in range(steps):
            h, c, step_cache = self.cell.step(x[:, t, :], xw[:, t, :], h, c)
            if cache:
                self._caches.append(step_cache)
            outputs[:, t, :] = h
        return outputs

    __call__ = forward

    # -- stepping interface (inference-time, used by decoders and streaming
    # -- sessions; plain forward keeps its own loop for BPTT) ----------------

    def start_state(self, batch: int) -> Tuple[Array, Array]:
        """Fresh ``(h, c)`` state for a new sequence."""
        return (
            np.zeros((batch, self.hidden_size)),
            np.zeros((batch, self.hidden_size)),
        )

    def step(
        self,
        x_t: Array,
        state: Tuple[Array, Array],
        hook: Optional[MemoHook] = None,
    ) -> Tuple[Array, Tuple]:
        """One inference step; returns ``(h_t, new_state)``.

        Projects the one input row, then runs the cell's ``step_hooked``;
        ``hook`` is the memoization seam.  Agrees with :meth:`forward` to
        float tolerance (see the bitwise note in :mod:`repro.nn.cells`).
        """
        return self.cell.step_hooked(x_t, self.cell.project_inputs(x_t), state, hook=hook)

    def backward(self, grad_out: Array) -> Array:
        """BPTT over the cached sequence, releasing the cache; returns
        ``dL/dx`` (B, T, E)."""
        caches, self._caches = self._caches, []
        if not caches:
            raise RuntimeError(NO_CACHE)
        batch = grad_out.shape[0]
        steps = len(caches)
        d_h = np.zeros((batch, self.hidden_size))
        d_c = np.zeros((batch, self.hidden_size))
        d_x = np.empty((batch, steps, self.input_size))
        for t in reversed(range(steps)):
            d_h_total = d_h + grad_out[:, t, :]
            d_x_t, d_h, d_c = self.cell.backward_step(d_h_total, d_c, caches[t])
            d_x[:, t, :] = d_x_t
        return d_x
