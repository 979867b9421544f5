"""Memo tables for the memoization engine.

The paper's memoization buffer holds, per gate neuron, the output of the
last full evaluation.  The engine owns one :class:`MemoTable` per gate
*phase*, whose memo is a single C-contiguous ``(B, G*H)`` float64 array
covering every gate of the phase.

The update exploits an identity of the reuse rule: the substituted
outputs ``where(reuse, memo, fresh)`` and the refreshed memo
``where(reuse, memo, fresh)`` are the *same* array, so one select per
timestep yields both.  The select is a single ``np.where`` into a new
array, with no inverted mask.  It branches per element, as a masked
in-place copy does, but slows down less than the copy when the reuse
decisions are hard to predict.  The first timestep of a sequence adopts
the fresh pre-activations as the memo.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

Array = np.ndarray


class MemoTable:
    """Memo for one gate phase.

    Attributes:
        neurons: total neuron count covered (sum of gate widths).
        batch: the batch size of the current sequence, or ``None`` before
            the first :meth:`begin_sequence`.
        memo: the memoized ``(B, neurons)`` pre-activations, or ``None``
            on a fresh sequence (nothing is memoized yet).
    """

    def __init__(self, neurons: int):
        if neurons <= 0:
            raise ValueError("neurons must be positive")
        self.neurons = neurons
        self.batch: Optional[int] = None
        self.memo: Optional[Array] = None

    def begin_sequence(self, batch: int) -> None:
        """Mark the memo empty for a new batch of ``batch`` sequences."""
        self.batch = batch
        self.memo = None

    def substitute(self, reuse_mask: Array, fresh: Array) -> Array:
        """Fold ``fresh`` pre-activations into the memo; return the outputs.

        Where ``reuse_mask`` is True the memoized value stands (the full
        evaluation is logically skipped); elsewhere ``fresh`` replaces it.
        The returned array is kept as the new memo — on the first
        timestep of a sequence it is ``fresh`` itself — so callers must
        not write into it, nor into ``fresh`` afterwards.

        Raises:
            RuntimeError: if :meth:`begin_sequence` has never been
                called: no sequence has started, so there is nothing to
                memoize into.
        """
        if self.batch is None:
            raise RuntimeError(
                "begin_sequence was not called: the memo table has no "
                "sequence to substitute into"
            )
        memo = self.memo
        if memo is not None:
            fresh = np.where(reuse_mask, memo, fresh)
        self.memo = fresh
        return fresh
