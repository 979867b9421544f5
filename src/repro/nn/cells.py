"""The shared gated-cell contract and the ``MemoHook`` protocol.

Every recurrent cell in :mod:`repro.nn` computes, per timestep, one or
more *gate phases*: groups of gates that share the same ``(x, h)``
operand pair (an LSTM computes all four gates from ``(x_t, h_{t-1})`` in
one phase; a GRU computes ``z``/``r`` from ``(x_t, h_{t-1})`` and then
the candidate from ``(x_t, r_t * h_{t-1})``).  :class:`GatedCell` makes
that structure explicit:

- ``GATES`` — the cell's gate order, exported so memo buffers, reuse
  traces and stats never hard-code ``("i", "f", "g", "o")``;
- ``PHASES`` — the phase decomposition, each a :class:`GatePhase`;
- stacked parameters ``w_x`` ``(G*H, E)``, ``w_h`` ``(G*H, H)`` and
  ``b`` ``(G*H,)``, one ``H``-row block per gate in ``GATES`` order
  (PyTorch's ``weight_ih``/``weight_hh`` layout);
- :meth:`GatedCell.project_inputs` — the input half ``x @ W_x.T`` of
  every gate, one GEMM over all rows it is given (a layer's forward
  hands it the whole ``(B, T, E)`` sequence);
- :meth:`GatedCell.phase_preacts` — all pre-activations of a phase as
  one contiguous ``(B, G*H)`` matrix: one recurrent GEMM plus the
  phase's columns of the projected input row;
- ``step_hooked`` (implemented per cell) — a timestep that offers each
  phase's pre-activation matrix to a single :class:`MemoHook` before
  applying biases and activations.

``MemoHook`` is the memoization seam: the engine sees whole batched gate
matrices, decides reuse for every gate and neuron at once, and hands
back the (possibly substituted) matrix.  Cells stay memoization-agnostic
and the engine stays cell-agnostic.

Bitwise note: BLAS may change its reduction blocking, and with it the
rounding of every element, with a GEMM's shape.  Every forward over one
batch — the plain forward (training's and ``Benchmark.evaluate``'s), the
memoized forward, the θ=0 oracle and the tests' reference hook —
projects the same ``(B*T, E)`` input in one GEMM and then issues the
same recurrent GEMM per phase and timestep, so those forwards agree
bitwise.  Stepping a layer one timestep at a time projects ``B`` rows
instead of ``B*T``, so it agrees with the forward to float tolerance,
not bitwise; likewise a row's floats depend on the batch it rides in.
Paths that cross batch compositions (shards, served or coalesced rows,
streaming sessions) therefore compare discrete outputs and reuse
counts, not floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Protocol, Tuple

import numpy as np

from repro.nn.initializers import orthogonal, xavier_uniform, zeros
from repro.nn.module import Module, Parameter

Array = np.ndarray

#: Why a recurrent layer's ``backward`` refused to run.  A layer keeps
#: its per-timestep BPTT caches only from a ``forward(..., cache=True)``,
#: and the next forward or ``backward`` releases them.
NO_CACHE = "backward needs the BPTT cache of the last forward(..., cache=True)"


@dataclass(frozen=True)
class GatePhase:
    """One group of gates sharing an ``(x, h)`` operand pair.

    Attributes:
        index: position of this phase within the cell's ``PHASES`` (also
            the index of the engine's per-phase predictor/memo table).
        gates: gate names evaluated in this phase, in block order.
        recurrent: human-readable description of the recurrent operand
            (``"h_prev"`` or ``"reset_h"``) — documentation only; the
            actual operand is whatever ``step_hooked`` passes to the hook.
    """

    index: int
    gates: Tuple[str, ...]
    recurrent: str = "h_prev"


class MemoHook(Protocol):
    """The memoization seam between cells and the engine.

    ``on_gates`` receives the whole batched pre-activation matrix of one
    gate phase — shape ``(B, G*H)`` with one ``H``-wide block per gate in
    ``phase.gates`` order — together with the operands that produced it.
    The hook decides reuse (producing a boolean mask of the same shape,
    which it records into its stats), substitutes memoized values where
    reuse applies, and returns the matrix to continue the timestep with.
    Returning ``preacts`` unchanged makes the hook a pure observer.
    """

    def on_gates(
        self,
        cell: "GatedCell",
        phase: GatePhase,
        x: Array,
        h: Array,
        preacts: Array,
    ) -> Array:
        ...


class GatedCell(Module):
    """Base class for recurrent cells built from named gates.

    Subclasses declare ``GATES``/``PHASES``, set ``input_size`` and
    ``hidden_size`` and call :meth:`_init_gate_weights`; this base then
    provides per-gate and per-phase views of the stacked weights, the
    input projection and the phase pre-activation used by every timestep.
    """

    #: Gate evaluation order (block order of stacked buffers and traces).
    GATES: ClassVar[Tuple[str, ...]] = ()
    #: Phase decomposition; every gate appears in exactly one phase.
    PHASES: ClassVar[Tuple[GatePhase, ...]] = ()

    input_size: int
    hidden_size: int

    def _init_gate_weights(self, rng: np.random.Generator) -> None:
        """Register the stacked ``w_x``, ``w_h`` and ``b`` parameters.

        Per gate, in ``GATES`` order: a Xavier-uniform ``W_x`` block, then
        an orthogonal ``W_h`` block, drawn from ``rng`` in that order and
        written straight into the gate's rows of the stacked arrays;
        biases start at zero.
        """
        hidden = self.hidden_size
        rows = len(self.GATES) * hidden
        w_x = np.empty((rows, self.input_size))
        w_h = np.empty((rows, hidden))
        for start in range(0, rows, hidden):
            w_x[start : start + hidden] = xavier_uniform((hidden, self.input_size), rng)
            w_h[start : start + hidden] = orthogonal((hidden, hidden), rng)
        self.w_x = Parameter(w_x)
        self.w_h = Parameter(w_h)
        self.b = Parameter(zeros((rows,)))

    # -- weight access -------------------------------------------------------

    def gate_rows(self, gates: Tuple[str, ...]) -> slice:
        """Rows of the stacked parameters holding ``gates``.

        ``gates`` must be consecutive in ``GATES`` order (every phase is).
        """
        gates = tuple(gates)
        start = self.GATES.index(gates[0]) if gates and gates[0] in self.GATES else None
        if start is None or self.GATES[start : start + len(gates)] != gates:
            raise KeyError(
                f"{gates!r} is not a run of {type(self).__name__} gates {self.GATES!r}"
            )
        hidden = self.hidden_size
        return slice(start * hidden, (start + len(gates)) * hidden)

    def gate_weights(self, gate: str) -> Tuple[Array, Array, Array]:
        """``(W_x, W_h, b)`` of ``gate``: row-block views, not copies."""
        rows = self.gate_rows((gate,))
        return self.w_x.value[rows], self.w_h.value[rows], self.b.value[rows]

    @property
    def gate_names(self) -> Tuple[str, ...]:
        return self.GATES

    def stacked_gate_weights(self, gates: Tuple[str, ...]) -> Tuple[Array, Array]:
        """``(W_x, W_h)`` of a run of gates: row-block views, not copies.

        Phase-level predictors (one BNN mirror covering every gate of the
        phase) are built from these.
        """
        rows = self.gate_rows(gates)
        return self.w_x.value[rows], self.w_h.value[rows]

    # -- pre-activations -----------------------------------------------------

    def project_inputs(self, x: Array) -> Array:
        """The input half ``x @ W_x.T`` of every gate, for all rows at once.

        ``x`` is ``(..., E)``; the result is ``(..., G*H)`` in ``GATES``
        block order.  One 2-D GEMM over the flattened rows — a layer's
        forward passes its whole ``(B, T, E)`` input, so the projection
        runs once per sequence instead of once per timestep.
        """
        flat = x.reshape(-1, self.input_size)
        return (flat @ self.w_x.value.T).reshape(*x.shape[:-1], -1)

    def phase_preacts(self, gates: Tuple[str, ...], xw: Array, h: Array) -> Array:
        """All ``W_x x + W_h h`` products of a phase as one ``(B, G*H)``.

        ``xw`` is the timestep's projected input row from
        :meth:`project_inputs` (every gate's columns); ``h`` is the phase's
        recurrent operand.
        One recurrent GEMM over the phase's stacked rows, plus the phase's
        columns of ``xw``.  Keeps no state on the cell, so any number of
        threads may step one cell at once.
        """
        rows = self.gate_rows(gates)
        pre = h @ self.w_h.value[rows].T
        pre += xw[:, rows]
        return pre

    # -- stepping ------------------------------------------------------------

    def step_hooked(self, x: Array, xw: Array, state, hook: Optional[MemoHook] = None):
        """One inference timestep with an optional memoization hook.

        ``x`` is the raw input row (the hook's operand), ``xw`` its
        projection.  Returns ``(h_t, new_state)`` with the layer's state
        convention.  Implemented by each cell; with ``hook=None`` the
        result is bitwise identical to the training-time ``step``.
        """
        raise NotImplementedError
