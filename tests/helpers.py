"""Shared test utilities: finite-difference gradient checking, the
per-gate float64 reference the stacked cells are compared against, the
per-gate memoization reference (with its own Eq. 12-17 BNN predictor)
the engine is compared against, and the numpy edit-distance DP that
:func:`repro.metrics.wer.edit_distance` is compared against."""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.core.predictors import BNNGatePredictor

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


def gate_block(cell, pname: str) -> Tuple[object, slice]:
    """``(parameter, rows)`` of a per-gate weight in a cell's stacked layout.

    ``pname`` uses the per-gate naming: ``w_ix`` is gate ``i``'s input
    weights, ``w_fh`` gate ``f``'s recurrent weights, ``b_g`` gate ``g``'s
    bias.  Gate ``k`` of ``cell.GATES`` owns rows ``k*H:(k+1)*H``.
    """
    if pname.startswith("b_"):
        gate, stacked = pname[2:], "b"
    else:
        gate, stacked = pname[2], f"w_{pname[3]}"
    hidden = cell.hidden_size
    k = cell.GATES.index(gate)
    return getattr(cell, stacked), slice(k * hidden, (k + 1) * hidden)


# -- per-gate float64 reference ------------------------------------------------
#
# Each gate's pre-activation is ``x_t @ W_gx.T + h @ W_gh.T`` with its own
# two GEMMs at every timestep, and the backward accumulates every gate's
# gradients with its own products: the arithmetic the cells used before
# their weights were stacked and their input GEMM hoisted.  Weights are
# copied out of the stacked parameters by the documented block layout,
# not through the cells' own accessors.


def _sigmoid(a: Array) -> Array:
    return 1.0 / (1.0 + np.exp(-a))


def _per_gate(cell) -> Dict[str, Tuple[Array, Array, Array]]:
    hidden = cell.hidden_size
    return {
        gate: tuple(
            param.value[k * hidden : (k + 1) * hidden].copy()
            for param in (cell.w_x, cell.w_h, cell.b)
        )
        for k, gate in enumerate(cell.GATES)
    }


def _stack_grads(cell, grads: Dict[str, list]) -> Dict[str, Array]:
    return {
        name: np.concatenate([grads[gate][j] for gate in cell.GATES])
        for j, name in enumerate(("w_x", "w_h", "b"))
    }


def _lstm_reference(cell, x: Array, grad_out: Array):
    w = _per_gate(cell)
    batch, steps, _ = x.shape
    hidden = cell.hidden_size
    peep = {g: getattr(cell, f"p_{g}").value for g in "ifo"} if cell.peephole else None
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    out = np.empty((batch, steps, hidden))
    caches = []
    for t in range(steps):
        x_t = x[:, t, :]
        pre = {g: x_t @ w[g][0].T + h @ w[g][1].T for g in cell.GATES}
        a_i = pre["i"] + w["i"][2]
        a_f = pre["f"] + w["f"][2]
        if peep:
            a_i = a_i + peep["i"] * c
            a_f = a_f + peep["f"] * c
        i, f = _sigmoid(a_i), _sigmoid(a_f)
        g = np.tanh(pre["g"] + w["g"][2])
        c_new = f * c + i * g
        a_o = pre["o"] + w["o"][2]
        if peep:
            a_o = a_o + peep["o"] * c_new
        o = _sigmoid(a_o)
        tanh_c = np.tanh(c_new)
        caches.append((x_t, h, c, i, f, g, o, c_new, tanh_c))
        h, c = o * tanh_c, c_new
        out[:, t, :] = h

    grads = {gate: [np.zeros_like(a) for a in w[gate]] for gate in cell.GATES}
    peep_grads = {f"p_{g}": np.zeros(hidden) for g in "ifo"} if peep else {}
    d_x = np.empty_like(x)
    d_h = np.zeros((batch, hidden))
    d_c = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        x_t, h_prev, c_prev, i, f, g, o, c, tanh_c = caches[t]
        d_h_t = d_h + grad_out[:, t, :]
        d_ao = d_h_t * tanh_c * o * (1.0 - o)
        d_c_total = d_h_t * o * (1.0 - tanh_c * tanh_c) + d_c
        if peep:
            d_c_total = d_c_total + d_ao * peep["o"]
        d_ai = d_c_total * g * i * (1.0 - i)
        d_af = d_c_total * c_prev * f * (1.0 - f)
        d_ag = d_c_total * i * (1.0 - g * g)
        d_c = d_c_total * f
        if peep:
            d_c = d_c + d_ai * peep["i"] + d_af * peep["f"]
            peep_grads["p_i"] += (d_ai * c_prev).sum(axis=0)
            peep_grads["p_f"] += (d_af * c_prev).sum(axis=0)
            peep_grads["p_o"] += (d_ao * c).sum(axis=0)
        d_x_t = np.zeros_like(x_t)
        d_h = np.zeros_like(h_prev)
        for gate, d_a in zip(cell.GATES, (d_ai, d_af, d_ag, d_ao)):
            grads[gate][0] += d_a.T @ x_t
            grads[gate][1] += d_a.T @ h_prev
            grads[gate][2] += d_a.sum(axis=0)
            d_x_t += d_a @ w[gate][0]
            d_h += d_a @ w[gate][1]
        d_x[:, t, :] = d_x_t
    return out, d_x, {**_stack_grads(cell, grads), **peep_grads}


def _gru_reference(cell, x: Array, grad_out: Array):
    w = _per_gate(cell)
    batch, steps, _ = x.shape
    hidden = cell.hidden_size
    h = np.zeros((batch, hidden))
    out = np.empty((batch, steps, hidden))
    caches = []
    for t in range(steps):
        x_t = x[:, t, :]
        z = _sigmoid(x_t @ w["z"][0].T + h @ w["z"][1].T + w["z"][2])
        r = _sigmoid(x_t @ w["r"][0].T + h @ w["r"][1].T + w["r"][2])
        reset_h = r * h
        g = np.tanh(x_t @ w["g"][0].T + reset_h @ w["g"][1].T + w["g"][2])
        caches.append((x_t, h, z, r, g, reset_h))
        h = (1.0 - z) * h + z * g
        out[:, t, :] = h

    grads = {gate: [np.zeros_like(a) for a in w[gate]] for gate in cell.GATES}
    d_x = np.empty_like(x)
    d_h = np.zeros((batch, hidden))
    for t in reversed(range(steps)):
        x_t, h_prev, z, r, g, reset_h = caches[t]
        d_h_t = d_h + grad_out[:, t, :]
        d_az = d_h_t * (g - h_prev) * z * (1.0 - z)
        d_ag = d_h_t * z * (1.0 - g * g)
        d_h = d_h_t * (1.0 - z)
        grads["g"][0] += d_ag.T @ x_t
        grads["g"][1] += d_ag.T @ reset_h
        grads["g"][2] += d_ag.sum(axis=0)
        d_reset_h = d_ag @ w["g"][1]
        d_x_t = d_ag @ w["g"][0]
        d_ar = d_reset_h * h_prev * r * (1.0 - r)
        d_h = d_h + d_reset_h * r
        for gate, d_a in (("z", d_az), ("r", d_ar)):
            grads[gate][0] += d_a.T @ x_t
            grads[gate][1] += d_a.T @ h_prev
            grads[gate][2] += d_a.sum(axis=0)
            d_x_t = d_x_t + d_a @ w[gate][0]
            d_h = d_h + d_a @ w[gate][1]
        d_x[:, t, :] = d_x_t
    return out, d_x, _stack_grads(cell, grads)


def _rnn_reference(cell, x: Array, grad_out: Array):
    (w_x, w_h, b), = _per_gate(cell).values()
    batch, steps, _ = x.shape
    h = np.zeros((batch, cell.hidden_size))
    out = np.empty((batch, steps, cell.hidden_size))
    for t in range(steps):
        h = np.tanh(x[:, t, :] @ w_x.T + h @ w_h.T + b)
        out[:, t, :] = h
    grads = {"w_x": np.zeros_like(w_x), "w_h": np.zeros_like(w_h), "b": np.zeros_like(b)}
    d_x = np.empty_like(x)
    d_h = np.zeros_like(h)
    for t in reversed(range(steps)):
        h_t = out[:, t, :]
        h_prev = out[:, t - 1, :] if t else np.zeros_like(h_t)
        d_a = (d_h + grad_out[:, t, :]) * (1.0 - h_t * h_t)
        grads["w_x"] += d_a.T @ x[:, t, :]
        grads["w_h"] += d_a.T @ h_prev
        grads["b"] += d_a.sum(axis=0)
        d_x[:, t, :] = d_a @ w_x
        d_h = d_a @ w_h
    return out, d_x, grads


def reference_layer(layer, x: Array, grad_out: Array):
    """Per-gate float64 forward and BPTT of a recurrent layer from zero state.

    Returns ``(outputs, d_x, grads)`` where ``grads`` maps every name of
    ``layer.named_parameters()`` to its gradient.  Bidirectional layers
    run each direction's reference, the backward one on reversed time.
    """
    x = np.asarray(x, dtype=np.float64)
    if hasattr(layer, "fwd"):
        hidden = layer.hidden_size
        out_f, d_f, g_f = reference_layer(layer.fwd, x, grad_out[:, :, :hidden])
        out_b, d_b, g_b = reference_layer(
            layer.bwd, x[:, ::-1, :], grad_out[:, ::-1, hidden:]
        )
        grads = {f"fwd.{k}": v for k, v in g_f.items()}
        grads.update({f"bwd.{k}": v for k, v in g_b.items()})
        return (
            np.concatenate([out_f, out_b[:, ::-1, :]], axis=-1),
            d_f + d_b[:, ::-1, :],
            grads,
        )
    reference = {"LSTMCell": _lstm_reference, "GRUCell": _gru_reference,
                 "RNNCell": _rnn_reference}[type(layer.cell).__name__]
    out, d_x, grads = reference(layer.cell, x, grad_out)
    return out, d_x, {f"cell.{k}": v for k, v in grads.items()}


class ReferenceBNNPredictor:
    """Eq. 12-17 reference for :class:`~repro.core.predictors.BNNGatePredictor`.

    Shares no code with the engine's predictor:

    - the binary mirror is the ±1 int32 matmul of the signs of
      ``[W_x | W_h]`` and of the operand ``[x ; h]``, not the packed
      popcount kernel;
    - the decision (:meth:`decide`) keeps the binary memo and ``delta``
      in float64 and updates them with an inverted mask and masked
      copies, where the engine's stays integer up to one divide and
      updates by multiplying with the mask.

    It consumes the raw operand, so a hook passes ``operand=``.
    """

    REQUIRES = frozenset({"operand"})

    def __init__(self, w_x: Array, w_h: Array, theta: float, throttle: bool = True):
        weights = np.concatenate([w_x, w_h], axis=1)
        self.signs = np.where(weights >= 0, 1, -1).astype(np.int32)
        self.theta = theta
        self.throttle = throttle
        self.y_b_m = None
        self.delta = None

    def begin_sequence(self, batch: int) -> None:
        self.y_b_m = None
        self.delta = None

    def mirror(self, operand: Array) -> Array:
        """Eq. 8: the integer dot product of the ±1 signs, ``(B, N)``."""
        return np.where(operand >= 0, 1, -1).astype(np.int32) @ self.signs.T

    def decide(self, y_b: Array) -> Array:
        """Eq. 12-17 on one timestep's integer binary outputs ``y_b``."""
        if self.y_b_m is None:
            self.y_b_m = y_b.astype(np.float64)
            self.delta = np.zeros(y_b.shape)
            return np.zeros(y_b.shape, dtype=bool)
        epsilon = np.abs(y_b - self.y_b_m) / np.maximum(np.abs(y_b), 1)
        if self.throttle:
            self.delta += epsilon
            candidate = self.delta
        else:
            candidate = epsilon
        reuse = candidate <= self.theta
        fresh = ~reuse
        np.copyto(self.y_b_m, y_b, where=fresh)
        if self.throttle:
            np.copyto(self.delta, 0.0, where=fresh)
        return reuse

    def predict_many(self, packed_signs=None, *, preacts=None, operand=None, memo=None):
        return self.decide(self.mirror(operand))


class ReferenceHook:
    """Per-gate reference for :class:`~repro.core.layers.MemoizedRecurrentLayer`.

    A :class:`~repro.nn.cells.MemoHook` that wraps one recurrent layer
    with the engine wrapper's ``start_state``/``step``/``forward``
    contract, deciding reuse the way the engine must but sharing none of
    its decision machinery:

    - one predictor per *gate* (the engine builds one per stacked phase);
    - the BNN predictor is a :class:`ReferenceBNNPredictor`, with its own
      ±1 matmul mirror and its own Eq. 12-17 decision;
    - the memo is a per-gate array updated in place with ``np.where``
      instead of a :class:`~repro.core.memo.MemoTable`;
    - reuse is recorded gate by gate, not once per phase.

    The floats it decides on come from the cell's own arithmetic, issued
    the way the engine issues it: ``forward`` projects the inputs with
    ``cell.project_inputs`` over all ``B*T`` rows, and ``step`` goes
    through ``layer.step(x, state, hook=self)``, which projects its row.

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
            predictor = predictor_factory(w_x, w_h)
            if isinstance(predictor, BNNGatePredictor):
                predictor = ReferenceBNNPredictor(
                    w_x, w_h, predictor.theta, throttle=predictor.throttle
                )
            self.predictors[gate] = predictor
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
            self.stats.record(self.name, (gate,), mask)
        return preacts

    def start_state(self, batch: int):
        for predictor in self.predictors.values():
            predictor.begin_sequence(batch)
        self.memo = {}
        return self.layer.start_state(batch)

    def step(self, x_t: Array, state):
        return self.layer.step(x_t, state, hook=self)

    def forward(self, x: Array, cache: bool = False) -> Array:
        assert not cache, "the reference hook is inference only"
        x = np.asarray(x, dtype=np.float64)
        batch, steps, _ = x.shape
        cell = self.layer.cell
        xw = cell.project_inputs(x)
        state = self.start_state(batch)
        outputs = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            outputs[:, t, :], state = cell.step_hooked(
                x[:, t, :], xw[:, t, :], state, hook=self
            )
        return outputs

    __call__ = forward


def reference_edit_distance(reference, hypothesis) -> int:
    """Levenshtein distance by a two-row numpy DP, the reference for
    :func:`repro.metrics.wer.edit_distance`'s Python-list DP."""
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    previous = np.arange(len(hyp) + 1)
    current = np.empty(len(hyp) + 1, dtype=np.int64)
    for i, ref_tok in enumerate(ref, start=1):
        current[0] = i
        # substitution cost vector for this reference token
        subs = previous[:-1] + np.array(
            [0 if ref_tok == h else 1 for h in hyp], dtype=np.int64
        )
        for j in range(1, len(hyp) + 1):
            current[j] = min(subs[j - 1], previous[j] + 1, current[j - 1] + 1)
        previous, current = current, previous
    return int(previous[len(hyp)])
