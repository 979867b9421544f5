"""Contiguous, preallocated memo tables for the memoization engine.

The paper's memoization buffer holds, per gate neuron, the output of the
last full evaluation.  The engine owns one :class:`MemoTable` per gate
*phase* — a single C-contiguous ``(B, G*H)`` float64 array covering
every gate of the phase, allocated once per batch shape and updated in
place.

The update exploits an identity of the reuse rule: the substituted
outputs ``where(reuse, memo, fresh)`` and the refreshed memo
``where(reuse, memo, fresh)`` are the *same* array, so one buffer serves
as both and the per-timestep work is a single masked in-place copy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.obs import profiler as _profiler

Array = np.ndarray


class MemoTable:
    """Preallocated memo buffer for one gate phase.

    Attributes:
        neurons: total neuron count covered (sum of gate widths).
        values: the ``(B, neurons)`` buffer, or ``None`` before the first
            :meth:`begin_sequence`.  After the first :meth:`substitute`
            of a sequence it always holds the memoized pre-activations.
        profile_key: optional ``(layer, phase_index)`` identity reported
            to an installed :class:`~repro.obs.profiler.Profiler` when
            the buffer is (re)allocated.
    """

    def __init__(self, neurons: int, profile_key: Optional[Tuple[str, int]] = None):
        if neurons <= 0:
            raise ValueError("neurons must be positive")
        self.neurons = neurons
        self.values: Optional[Array] = None
        self._fresh = True
        self.profile_key = profile_key

    def begin_sequence(self, batch: int) -> None:
        """Mark the memo empty; reallocate only if the batch shape changed."""
        if self.values is None or self.values.shape[0] != batch:
            self.values = np.empty((batch, self.neurons))
            # Allocation is the cold path (once per batch shape), so the
            # profiler check costs nothing on the per-timestep path.
            if self.profile_key is not None and _profiler.ACTIVE is not None:
                layer, phase_index = self.profile_key
                _profiler.ACTIVE.record_table(layer, phase_index, batch, self.neurons)
        self._fresh = True

    @property
    def memo(self) -> Optional[Array]:
        """Memoized pre-activations, or ``None`` on a fresh sequence."""
        return None if self._fresh else self.values

    def substitute(self, reuse_mask: Array, fresh: Array) -> Array:
        """Fold ``fresh`` pre-activations into the memo; return the outputs.

        Where ``reuse_mask`` is True the memoized value stands (the full
        evaluation is logically skipped); elsewhere ``fresh`` replaces it.
        The returned array is the live buffer — valid until the next
        :meth:`substitute`/:meth:`begin_sequence`, which matches the
        one-timestep lifetime of gate pre-activations.

        Raises:
            RuntimeError: if :meth:`begin_sequence` has never been
                called — the buffer does not exist yet, and failing
                loudly beats the opaque ``NoneType`` item-assignment
                error the raw buffer access would produce.
        """
        if self.values is None:
            raise RuntimeError(
                "begin_sequence was not called: the memo table has no "
                "buffer to substitute into"
            )
        if self._fresh:
            self.values[...] = fresh
            self._fresh = False
        else:
            np.copyto(self.values, fresh, where=~reuse_mask)
        return self.values
