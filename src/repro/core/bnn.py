"""Binary gate mirrors of trained full-precision gates (paper Figure 9).

A :class:`BinaryGate` is created by binarizing a gate's concatenated
forward/recurrent weight matrix ``[W_x | W_h]``.  At inference time it
binarizes the concatenated operand ``[x_t ; h_{t-1}]`` and produces the
integer dot product of Equation 8 for every neuron — the signal the
memoization predictor thresholds on.

A gate may mirror a *stack* of gates: the engine builds one
``BinaryGate`` over a whole phase's stacked weight rows (every gate's
block along the neuron axis), so a single XNOR/popcount pass
(:meth:`BinaryGate.evaluate_packed`) covers every gate of the cell.

The gate stores its weight signs once, packed at construction into the
word-major ``(W, N)`` uint64 layout of
:func:`~repro.core.binarization.binary_dot_packed`: row ``k`` holds
word ``k`` of all ``N`` neurons, so the kernel's per-word pass reads one
contiguous row.  Construction packs the signs of ``W_x`` and ``W_h``
straight into one bool buffer (``pack_signs(w_x, w_h)``) an eighth the
size of the float weights, so a mirror never copies the full-precision
``[W_x | W_h]`` it binarizes.  A phase evaluation at batch ``B`` then
costs one ``(B, N)`` XOR/popcount/add slab per 64-bit operand word.
That popcount kernel is the gate's only evaluation: the engine's
predictor and the Figures 7-8 correlation analysis
(:mod:`repro.core.correlation`) both call
:meth:`BinaryGate.evaluate_packed`.
"""

from __future__ import annotations

import numpy as np

from repro.core.binarization import binary_dot_packed, pack_signs

Array = np.ndarray


class BinaryGate:
    """The BNN mirror of one RNN gate (or one stacked gate phase).

    Args:
        w_x: full-precision forward weights ``(H, E)``.
        w_h: full-precision recurrent weights ``(H, R)``.
    """

    def __init__(self, w_x: Array, w_h: Array):
        w_x = np.asarray(w_x)
        w_h = np.asarray(w_h)
        if w_x.ndim != 2 or w_h.ndim != 2:
            raise ValueError("gate weights must be 2-D")
        if w_x.shape[0] != w_h.shape[0]:
            raise ValueError(
                f"forward/recurrent neuron counts differ: "
                f"{w_x.shape[0]} vs {w_h.shape[0]}"
            )
        self.neurons = w_x.shape[0]
        self.input_size = w_x.shape[1]
        self.recurrent_size = w_h.shape[1]
        self.n_bits = self.input_size + self.recurrent_size
        #: ``(W, N)`` word-major packed weight signs.
        self.weight_words = np.ascontiguousarray(pack_signs(w_x, w_h).T)

    def evaluate_packed(self, packed_operand: Array) -> Array:
        """Popcount evaluation of pre-packed operand signs.

        The caller packs the operand ``[x ; h]`` once per phase
        (``pack_signs(x, h)``) and this reduces to
        ``n_bits - 2 * popcount(w XOR x)`` per neuron: Eq. 8's integer
        dot product of the ±1 signs.

        Returns:
            int32 array of shape ``(B, N)`` (or ``(N,)`` for a 1-D
            operand).
        """
        return binary_dot_packed(self.weight_words, packed_operand, self.n_bits)

    @property
    def storage_bits(self) -> int:
        """Sign-buffer footprint of this gate in bits."""
        return self.neurons * self.n_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BinaryGate(neurons={self.neurons}, n_bits={self.n_bits})"
