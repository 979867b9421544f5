"""Memoization predictors: who decides when a neuron's cached output is
reused.

Three predictors are implemented:

- :class:`OracleGatePredictor` — the idealised predictor of Figure 6
  (Equations 9-11): it knows the true current output and reuses whenever
  the true relative error is under the threshold.  It upper-bounds what
  any practical predictor can achieve.
- :class:`BNNGatePredictor` — the paper's contribution (Figure 10,
  Equations 12-17): a binary mirror of the gate is always evaluated, and
  the *accumulated* relative change of the binary output since the last
  full evaluation (the throttling mechanism, Eq. 13) gates reuse.
- :class:`InputSimilarityGatePredictor` — the strawman discussed in the
  introduction: reuse when the gate's *input* changed little.  It ignores
  the weights, which is exactly why the paper rejects it.

The core contract is :meth:`GatePredictor.predict_many`: one batched
call covering every neuron of a gate phase (and every sequence in the
batch) that returns a boolean reuse mask.  The engine feeds it
pre-packed uint64 sign words (for the BNN, its only operand form), the
raw operand (for the input-similarity strawman) or the current/memoized
pre-activations (for the oracle); predictors own only their *decision*
state, while the memo tables live with the engine
(:class:`repro.core.memo.MemoTable`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import FrozenSet, Optional

import numpy as np

from repro.core.bnn import BinaryGate

Array = np.ndarray

#: Relative-error floor: |denominator| values below this are treated as
#: "output too small to compare", forcing a full evaluation.
_DENOM_FLOOR = 1e-12


class GatePredictor(ABC):
    """Reuse decision-maker for one gate (or one stacked gate phase).

    Subclasses implement :meth:`predict_many` — the batched contract —
    and declare in ``REQUIRES`` which inputs they consume so callers only
    materialise what is needed:

    - ``"packed"``: uint64-packed sign words of the operand ``[x ; h]``
      (see :func:`repro.core.binarization.pack_signs`),
    - ``"operand"``: the raw concatenated operand itself.

    The true pre-activations (``preacts``) and the engine-held memo
    (``memo``) are always offered; only the oracle may base its decision
    on them.
    """

    #: Which operand forms :meth:`predict_many` consumes.
    REQUIRES: FrozenSet[str] = frozenset()

    theta: float

    def begin_sequence(self, batch: int) -> None:
        """Clear decision state for a new batch of sequences; default no-op."""

    @abstractmethod
    def predict_many(
        self,
        packed_signs: Optional[Array] = None,
        *,
        preacts: Optional[Array] = None,
        operand: Optional[Array] = None,
        memo: Optional[Array] = None,
    ) -> Array:
        """Batched reuse decision for one timestep.

        Args:
            packed_signs: ``(B, W)`` uint64 sign words of the operand —
                required iff ``"packed" in REQUIRES``; a predictor that
                requires them raises ``ValueError`` without them.
            preacts: the true pre-activations ``(B, N)``.  Practical
                predictors must ignore it; the oracle thresholds on it.
            operand: the raw concatenated operand ``(B, D)`` — required
                iff ``"operand" in REQUIRES``.
            memo: the engine-held memoized pre-activations, or ``None``
                on the first timestep of a sequence.

        Returns:
            A new boolean reuse mask ``(B, N)``, which the caller may
            keep; all-False on the first call after
            :meth:`begin_sequence` (nothing is memoized yet).
        """


class OracleGatePredictor(GatePredictor):
    """Figure 6: reuse when the *true* relative output error is <= theta.

    ``delta = |(y_t - y_m) / y_t|``; reuse keeps ``y_m`` unchanged, a full
    evaluation replaces it (Equations 9-11).  No accumulation is applied —
    the oracle already sees the true drift.  Stateless beyond the memo:
    the decision is a pure function of ``(preacts, memo)``.
    """

    def __init__(self, theta: float):
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.theta = theta

    def predict_many(
        self,
        packed_signs: Optional[Array] = None,
        *,
        preacts: Optional[Array] = None,
        operand: Optional[Array] = None,
        memo: Optional[Array] = None,
    ) -> Array:
        if preacts is None:
            raise ValueError("oracle prediction requires the true preacts")
        if memo is None:
            return np.zeros(preacts.shape, dtype=bool)
        denom = np.maximum(np.abs(preacts), _DENOM_FLOOR)
        delta = np.abs(preacts - memo) / denom
        return delta <= self.theta


class BNNGatePredictor(GatePredictor):
    """Figure 10: the BNN-based predictor with throttling.

    State per neuron (Equations 12-17):

    - ``y_b_m`` — memoized binary output (updated only on full evals),
      kept as the int32 array :meth:`BinaryGate.evaluate_packed` returns;
    - ``delta`` — float64 accumulated relative binary change since the
      last full evaluation.  With ``throttle=False`` the accumulator is
      replaced by the instantaneous ``epsilon`` (the ablation of
      Figure 11).

    The engine feeds :meth:`predict_many` pre-packed uint64 sign words,
    so the binary mirror is a XNOR/popcount over whole gate phases.  The
    decision stays integer up to one float64 divide, then updates its
    state with multiplies by the reuse mask: no inverted mask, no masked
    copy and no per-element branch.  Its scratch buffers live on the
    predictor, which one engine wrapper owns and never shares across
    threads.
    """

    REQUIRES = frozenset({"packed"})

    def __init__(
        self,
        binary_gate: BinaryGate,
        theta: float,
        throttle: bool = True,
    ):
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.gate = binary_gate
        self.theta = theta
        self.throttle = throttle
        self._y_b_m: Optional[Array] = None
        self._delta: Optional[Array] = None
        self._diff: Optional[Array] = None
        self._change: Optional[Array] = None
        self._denom: Optional[Array] = None
        self._epsilon: Optional[Array] = None

    def begin_sequence(self, batch: int) -> None:
        self._y_b_m = None

    def predict_many(
        self,
        packed_signs: Optional[Array] = None,
        *,
        preacts: Optional[Array] = None,
        operand: Optional[Array] = None,
        memo: Optional[Array] = None,
    ) -> Array:
        if packed_signs is None:
            raise ValueError("BNN prediction requires packed signs")
        y_b = self.gate.evaluate_packed(packed_signs)
        y_b_m = self._y_b_m
        if y_b_m is None:
            self._y_b_m = y_b
            self._delta = np.zeros(y_b.shape)
            self._diff = np.empty(y_b.shape, dtype=np.int32)
            self._change = np.empty(y_b.shape, dtype=np.int32)
            self._denom = np.empty(y_b.shape, dtype=np.int32)
            self._epsilon = np.empty(y_b.shape)
            return np.zeros(y_b.shape, dtype=bool)

        # Eq. 12: relative difference between current and memoized binary
        # outputs.  Numerator and denominator stay integer; one divide
        # gives the same IEEE float64 quotient as dividing their float64
        # casts.  The denominator is floored at 1 (binary outputs are
        # integers), which also makes an exact match yield exactly zero
        # change — a zero binary output cannot be compared relatively.
        diff = np.subtract(y_b, y_b_m, out=self._diff)
        change = np.abs(diff, out=self._change)
        denom = np.abs(y_b, out=self._denom)
        np.maximum(denom, 1, out=denom)
        epsilon = np.divide(change, denom, out=self._epsilon)
        # Eq. 13: throttling accumulates epsilon across consecutive reuses.
        if self.throttle:
            delta_candidate = np.add(self._delta, epsilon, out=self._delta)
        else:
            delta_candidate = epsilon
        reuse = delta_candidate <= self.theta  # Eq. 14
        # Eq. 15-17: full evaluations refresh the binary memo and clear
        # delta; reuses keep the memo and carry the accumulated delta.
        # ``y_b - reuse * (y_b - y_b_m)`` selects the integers exactly,
        # without a per-element branch (``np.where`` runs one, and
        # mispredicts it on unpredictable masks).  Delta is finite and
        # non-negative, so multiplying by the mask writes the same +0.0
        # a masked clear would.
        np.multiply(diff, reuse, out=diff)
        self._y_b_m = np.subtract(y_b, diff, out=y_b)
        if self.throttle:
            np.multiply(delta_candidate, reuse, out=delta_candidate)
        return reuse


class InputSimilarityGatePredictor(GatePredictor):
    """Ablation: reuse when the gate *input* vector barely changed.

    The decision is per gate (all neurons share the input), computed as
    the L1 relative change of the concatenated operand ``[x ; h]`` against
    the operand memoized at the last full evaluation.  Small input changes
    multiplied by large weights still flip outputs — the failure mode the
    paper calls out — so this predictor trades accuracy for reuse much
    worse than the BNN, which the ablation bench demonstrates.
    """

    REQUIRES = frozenset({"operand"})

    def __init__(self, theta: float, neurons: int):
        if theta < 0:
            raise ValueError("theta must be non-negative")
        if neurons <= 0:
            raise ValueError("neurons must be positive")
        self.theta = theta
        self.neurons = neurons
        self._u_m: Optional[Array] = None

    def begin_sequence(self, batch: int) -> None:
        self._u_m = None

    def predict_many(
        self,
        packed_signs: Optional[Array] = None,
        *,
        preacts: Optional[Array] = None,
        operand: Optional[Array] = None,
        memo: Optional[Array] = None,
    ) -> Array:
        if operand is None:
            raise ValueError("input-similarity prediction requires the operand")
        if self._u_m is None:
            self._u_m = operand.copy()
            return np.zeros((operand.shape[0], self.neurons), dtype=bool)
        num = np.abs(operand - self._u_m).sum(axis=-1)
        den = np.maximum(np.abs(operand).sum(axis=-1), _DENOM_FLOOR)
        change = num / den  # (B,)
        reuse_rows = change <= self.theta
        self._u_m = np.where(reuse_rows[:, None], self._u_m, operand)
        return np.repeat(reuse_rows[:, None], self.neurons, axis=1)
