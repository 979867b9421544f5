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
- :meth:`GatedCell.phase_preacts` — all pre-activations of a phase as
  one contiguous ``(B, G*H)`` matrix (gate blocks in ``GATES`` order);
- ``step_hooked`` (implemented per cell) — a timestep that offers each
  phase's pre-activation matrix to a single :class:`MemoHook` before
  applying biases and activations.

``MemoHook`` replaces the old per-gate ``gate_preacts`` callback dicts:
the memoization engine sees whole batched gate matrices, decides reuse
for every gate and neuron at once, and hands back the (possibly
substituted) matrix.  Cells stay memoization-agnostic and the engine
stays cell-agnostic.

Bitwise note: the per-gate full-precision GEMMs are *kept separate*
inside :meth:`phase_preacts` (written into block views of the stacked
buffer).  BLAS may change its reduction blocking, and with it the
rounding of every element, with a GEMM's shape.  Fusing the gates into a
single GEMM over vertically stacked weights changes the output width and
is **not** bitwise-stable for inner dimensions >= ~48.  The row count
matters too: with numpy 2.4.6 and OpenBLAS 0.3.31 a row computed alone
differs in its last bits from the same row inside any GEMM of two or
more rows, so hoisting the input GEMM out of the time loop (batch x
steps rows instead of batch) would not be bitwise either.  The invariant
the tests pin is therefore per batch: for the same input batch, every
engine path issues GEMMs of the same shapes and returns bitwise-equal
floats.  Across batch compositions (shards, served or coalesced rows)
they compare the discrete outputs and reuse counts, not the floats.
:meth:`stacked_gate_weights` exists for the *predictor* side only (BNN
sign mirrors, operand-similarity), where arithmetic is exact (integer
popcounts / elementwise ops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Protocol, Tuple

import numpy as np

from repro.nn.module import Module

Array = np.ndarray


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

    Subclasses declare ``GATES``/``PHASES`` and store their parameters
    under the ``w_{gate}x`` / ``w_{gate}h`` / ``b_{gate}`` naming
    convention; this base then provides uniform weight access and the
    stacked pre-activation helper used by ``step_hooked``.
    """

    #: Gate evaluation order (block order of stacked buffers and traces).
    GATES: ClassVar[Tuple[str, ...]] = ()
    #: Phase decomposition; every gate appears in exactly one phase.
    PHASES: ClassVar[Tuple[GatePhase, ...]] = ()

    input_size: int
    hidden_size: int

    # -- weight access -------------------------------------------------------

    def gate_weights(self, gate: str) -> Tuple[Array, Array, Array]:
        """Return ``(W_x, W_h, b)`` for ``gate`` in ``GATES``."""
        if gate not in self.GATES:
            raise KeyError(
                f"unknown {type(self).__name__} gate {gate!r}"
            )
        return (
            getattr(self, f"w_{gate}x").value,
            getattr(self, f"w_{gate}h").value,
            getattr(self, f"b_{gate}").value,
        )

    @property
    def gate_names(self) -> Tuple[str, ...]:
        return self.GATES

    def stacked_gate_weights(self, gates: Tuple[str, ...]) -> Tuple[Array, Array]:
        """``(W_x, W_h)`` of the given gates stacked along the neuron axis.

        Used to build phase-level predictors (one BNN mirror / operand
        tracker covering every gate of the phase).  Not used for the
        full-precision GEMMs — see the module docstring's bitwise note.
        """
        weights = [self.gate_weights(gate) for gate in gates]
        w_x = np.concatenate([w[0] for w in weights], axis=0)
        w_h = np.concatenate([w[1] for w in weights], axis=0)
        return w_x, w_h

    # -- pre-activations -----------------------------------------------------

    def phase_preacts(
        self,
        gates: Tuple[str, ...],
        x: Array,
        h: Array,
        out: Optional[Array] = None,
    ) -> Array:
        """All ``W_x x + W_h h`` products of a phase as one ``(B, G*H)``.

        Each gate's GEMM pair runs separately and is summed directly into
        its block view of the output buffer (``np.add(..., out=view)`` is
        elementwise, so the block contents are bitwise identical to the
        legacy per-gate ``x @ W_x.T + h @ W_h.T``).
        """
        batch = x.shape[0]
        hidden = self.hidden_size
        if out is None:
            out = np.empty((batch, hidden * len(gates)))
        scratch = getattr(self, "_gemm_scratch", None)
        if scratch is None or scratch[0].shape[0] != batch:
            scratch = (np.empty((batch, hidden)), np.empty((batch, hidden)))
            self._gemm_scratch = scratch
        xw, hw = scratch
        for i, gate in enumerate(gates):
            w_x, w_h, _ = self.gate_weights(gate)
            view = out[:, i * hidden : (i + 1) * hidden]
            np.matmul(x, w_x.T, out=xw)
            np.matmul(h, w_h.T, out=hw)
            np.add(xw, hw, out=view)
        return out

    # -- stepping ------------------------------------------------------------

    def step_hooked(self, x: Array, state, hook: Optional[MemoHook] = None):
        """One inference timestep with an optional memoization hook.

        Returns ``(h_t, new_state)`` with the layer's state convention.
        Implemented by each cell; with ``hook=None`` the result is
        bitwise identical to the legacy dict-based ``step``.
        """
        raise NotImplementedError
