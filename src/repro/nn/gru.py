"""GRU cell and sequence layer (paper Figure 3; Cho et al. 2014).

Like :class:`repro.nn.lstm.LSTMCell`, the GRU is a
:class:`~repro.nn.cells.GatedCell`.  The candidate gate's recurrent
operand is ``r_t * h_{t-1}``, so the cell decomposes into *two* gate
phases: ``z``/``r`` over ``(x_t, h_{t-1})`` first, then ``g`` over
``(x_t, r_t * h_{t-1})`` once the reset gate is resolved.  The
:class:`~repro.nn.cells.MemoHook` sees one batched pre-activation matrix
per phase.  The candidate's recurrent GEMM runs over the ``g`` rows of
the stacked ``w_h`` against ``r_t * h_{t-1}``; both phases read their
input half from the one projection of the sequence.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.activations import sigmoid, tanh
from repro.nn.cells import NO_CACHE, GatedCell, GatePhase, MemoHook
from repro.nn.module import Module

Array = np.ndarray

#: Gate evaluation order: update, reset, candidate.
GRU_GATES: Tuple[str, ...] = ("z", "r", "g")


class GRUCell(GatedCell):
    """A single GRU cell::

        z_t = sigmoid(W_zx x_t + W_zh h_{t-1} + b_z)
        r_t = sigmoid(W_rx x_t + W_rh h_{t-1} + b_r)
        g_t = tanh   (W_gx x_t + W_gh (r_t * h_{t-1}) + b_g)
        h_t = (1 - z_t) * h_{t-1} + z_t * g_t

    Gate ``k`` of ``GATES`` owns rows ``k*H:(k+1)*H`` of the stacked
    ``w_x``, ``w_h`` and ``b``.
    """

    GATES = GRU_GATES
    #: z/r share (x, h_prev); the candidate sees the reset-gated state.
    PHASES = (
        GatePhase(0, ("z", "r"), "h_prev"),
        GatePhase(1, ("g",), "reset_h"),
    )

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

    def zr_preacts(self, xw: Array, h_prev: Array) -> Dict[str, Array]:
        """Matmul pre-activations for the update and reset gates.

        Dict view of phase 0's
        :meth:`~repro.nn.cells.GatedCell.phase_preacts` for the projected
        input row ``xw``.
        """
        pre = self.phase_preacts(self.PHASES[0].gates, xw, h_prev)
        hidden = self.hidden_size
        return {"z": pre[:, :hidden], "r": pre[:, hidden:]}

    def g_preact(self, xw: Array, reset_h: Array) -> Array:
        """Matmul pre-activation for the candidate gate (phase 1).

        ``reset_h`` is the already-gated recurrent operand ``r_t * h_{t-1}``.
        """
        return self.phase_preacts(self.PHASES[1].gates, xw, reset_h)

    def step(
        self,
        x: Array,
        xw: Array,
        h_prev: Array,
        preacts: Optional[Dict[str, Array]] = None,
    ) -> Tuple[Array, dict]:
        """One training timestep over the projected input row ``xw``
        (B, 3H); ``preacts`` may substitute any of the three gates."""
        preacts = dict(preacts) if preacts else {}
        if "z" not in preacts or "r" not in preacts:
            preacts.update(
                {k: v for k, v in self.zr_preacts(xw, h_prev).items() if k not in preacts}
            )
        hidden = self.hidden_size
        b = self.b.value
        z = sigmoid(preacts["z"] + b[:hidden])
        r = sigmoid(preacts["r"] + b[hidden : 2 * hidden])
        reset_h = r * h_prev
        if "g" not in preacts:
            preacts["g"] = self.g_preact(xw, reset_h)
        g = tanh(preacts["g"] + b[2 * hidden :])
        h = (1.0 - z) * h_prev + z * g
        cache = {
            "x": x,
            "h_prev": h_prev,
            "z": z,
            "r": r,
            "g": g,
            "reset_h": reset_h,
        }
        return h, cache

    def step_hooked(
        self,
        x: Array,
        xw: Array,
        state: Array,
        hook: Optional[MemoHook] = None,
    ) -> Tuple[Array, Array]:
        """One inference timestep over stacked pre-activation matrices.

        Phase 0 offers the ``(B, 2H)`` z/r matrix to ``hook``, the reset
        gate is resolved, then phase 1 offers the ``(B, H)`` candidate
        matrix (whose recurrent operand is ``r_t * h_{t-1}``).  With no
        hook, bitwise identical to :meth:`step`.
        """
        h_prev = state
        hidden = self.hidden_size
        b = self.b.value
        zr_phase, g_phase = self.PHASES
        pre_zr = self.phase_preacts(zr_phase.gates, xw, h_prev)
        if hook is not None:
            pre_zr = hook.on_gates(self, zr_phase, x, h_prev, pre_zr)
        z = sigmoid(pre_zr[:, :hidden] + b[:hidden])
        r = sigmoid(pre_zr[:, hidden:] + b[hidden : 2 * hidden])
        reset_h = r * h_prev
        pre_g = self.phase_preacts(g_phase.gates, xw, reset_h)
        if hook is not None:
            pre_g = hook.on_gates(self, g_phase, x, reset_h, pre_g)
        g = tanh(pre_g + b[2 * hidden :])
        h = (1.0 - z) * h_prev + z * g
        return h, h

    def backward_step(self, d_h: Array, cache: dict) -> Tuple[Array, Array]:
        """Backward through one timestep -> ``(d_x, d_h_prev)``."""
        x, h_prev = cache["x"], cache["h_prev"]
        z, r, g, reset_h = cache["z"], cache["r"], cache["g"], cache["reset_h"]

        d_z = d_h * (g - h_prev)
        d_g = d_h * z
        d_h_prev = d_h * (1.0 - z)

        d_az = d_z * z * (1.0 - z)
        d_ag = d_g * (1.0 - g * g)

        # The candidate's recurrent operand is the reset-gated state.
        zr_rows = self.gate_rows(self.PHASES[0].gates)
        g_rows = self.gate_rows(self.PHASES[1].gates)
        w_h = self.w_h.value
        d_reset_h = d_ag @ w_h[g_rows]
        d_r = d_reset_h * h_prev
        d_ar = d_r * r * (1.0 - r)

        # Stacked (B, 3H) pre-activation gradient: one GEMM per weight
        # gradient and per input gradient, except that w_h's z/r and g
        # blocks see different operands.
        d_a = np.concatenate([d_az, d_ar, d_ag], axis=1)
        d_zr = d_a[:, zr_rows]
        self.w_x.grad += d_a.T @ x
        self.w_h.grad[zr_rows] += d_zr.T @ h_prev
        self.w_h.grad[g_rows] += d_ag.T @ reset_h
        self.b.grad += d_a.sum(axis=0)
        d_x = d_a @ self.w_x.value
        d_h_prev = d_h_prev + d_reset_h * r + d_zr @ w_h[zr_rows]
        return d_x, d_h_prev


class GRULayer(Module):
    """Runs a :class:`GRUCell` over a batch of sequences (B, T, E)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
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
        """One inference step; returns ``(h_t, new_state)``.

        Projects the one input row, then runs the cell's ``step_hooked``;
        ``hook`` is the memoization seam.  Agrees with :meth:`forward` to
        float tolerance (see the bitwise note in :mod:`repro.nn.cells`).
        """
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
