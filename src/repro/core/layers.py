"""Memoized drop-in replacement for the recurrent layers.

:class:`MemoizedRecurrentLayer` shares the wrapped layer's cell (and
therefore its weights) and reproduces its forward contract, but routes
every gate pre-activation through the memoization machinery.  It is the
engine's :class:`~repro.nn.cells.MemoHook`: the cell's ``step_hooked``
offers each gate phase's batched ``(B, G*H)`` pre-activation matrix, the
hook decides reuse for all gates and neurons at once, substitutes
memoized values, and records the phase's decisions into a
:class:`~repro.core.stats.ReuseRecorder` with one call.

A forward projects the whole input sequence once
(:meth:`~repro.nn.cells.GatedCell.project_inputs`), exactly as the plain
layer's forward does, then steps.  Each phase has one predictor built
from views of the stacked gate weights, one packed sign evaluation, one
:class:`~repro.core.memo.MemoTable` select and one stats record per
timestep.  An installed :class:`~repro.obs.profiler.Profiler` only adds
timing fences around the projection, each step, the predictor and the
substitution, so profiling cannot change a result bit.

Because every cell is a :class:`~repro.nn.cells.GatedCell`, nothing here
special-cases LSTM vs GRU vs vanilla RNN — the phase decomposition
(``PHASES``) carries all cell-specific structure, including the GRU
candidate gate's reset-gated operand.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

from repro.core.binarization import pack_signs
from repro.obs import profiler as _profiler
from repro.core.memo import MemoTable
from repro.core.predictors import GatePredictor
from repro.core.stats import ReuseRecorder
from repro.nn.cells import GatedCell, GatePhase
from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.rnn import RNNLayer

Array = np.ndarray
PredictorFactory = Callable[[Array, Array], GatePredictor]


class MemoizedRecurrentLayer:
    """Any :class:`~repro.nn.cells.GatedCell` layer evaluated under
    neuron-level fuzzy memoization.

    For multi-phase cells (GRU) each phase gets its own predictor and
    memo table, and each predictor sees the operand the hardware FMU
    would: the candidate gate's concatenated vector is built after the
    reset gate is resolved.
    """

    def __init__(
        self,
        layer,
        predictor_factory: PredictorFactory,
        stats: ReuseRecorder,
        name: str = "rnn",
    ):
        self.layer = layer
        self.cell: GatedCell = layer.cell
        self.input_size = layer.input_size
        self.hidden_size = layer.hidden_size
        self.stats = stats
        self.name = name
        #: One predictor + memo table per gate phase, indexed by
        #: ``phase.index``; the predictor covers the stacked weights of
        #: every gate in the phase.
        self._phase_predictors: List[GatePredictor] = []
        self._tables: List[MemoTable] = []
        for phase in self.cell.PHASES:
            w_x, w_h = self.cell.stacked_gate_weights(phase.gates)
            self._phase_predictors.append(predictor_factory(w_x, w_h))
            self._tables.append(MemoTable(w_x.shape[0]))

    # -- sequence lifecycle --------------------------------------------------

    def start_state(self, batch: int):
        """Reset memoization state and return the wrapped layer's state."""
        for predictor, table in zip(self._phase_predictors, self._tables):
            predictor.begin_sequence(batch)
            table.begin_sequence(batch)
        return self.layer.start_state(batch)

    def step(self, x_t: Array, state, xw: Optional[Array] = None):
        """One memoized timestep; returns ``(h_t, new_state)``.

        ``xw`` is the row's input projection when the caller hoisted it
        (:meth:`forward` does); otherwise the one row is projected here.
        """
        profiler = _profiler.ACTIVE
        if profiler is not None:
            start = perf_counter()
        if xw is None:
            xw = self.cell.project_inputs(x_t)
        result = self.cell.step_hooked(x_t, xw, state, hook=self)
        if profiler is not None:
            profiler.record_step(self.name, perf_counter() - start)
        return result

    # -- MemoHook ------------------------------------------------------------

    def on_gates(
        self,
        cell: GatedCell,
        phase: GatePhase,
        x: Array,
        h: Array,
        preacts: Array,
    ) -> Array:
        profiler = _profiler.ACTIVE
        predictor = self._phase_predictors[phase.index]
        table = self._tables[phase.index]
        packed = operand = None
        if "packed" in predictor.REQUIRES:
            packed = pack_signs(x, h)
        if "operand" in predictor.REQUIRES:
            operand = np.concatenate([x, h], axis=-1)
        if profiler is not None:
            t0 = perf_counter()
        mask = predictor.predict_many(
            packed, preacts=preacts, operand=operand, memo=table.memo
        )
        if profiler is not None:
            t1 = perf_counter()
        outputs = table.substitute(mask, preacts)
        if profiler is not None:
            profiler.record_phase(
                self.name,
                phase.index,
                phase.gates,
                predict_s=t1 - t0,
                substitute_s=perf_counter() - t1,
                reused=int(mask.sum()),
                total=mask.size,
            )
        self.stats.record(self.name, phase.gates, mask)
        return outputs

    # -- forward -------------------------------------------------------------

    def forward(self, x: Array, cache: bool = False) -> Array:
        """Memoized full-sequence forward, ``(B, T, E) -> (B, T, H)``.

        Takes the wrapped layer's ``cache`` flag so stacks can pass it
        through, but memoized evaluation is inference only: there is no
        BPTT cache to keep.
        """
        if cache:
            raise ValueError("a memoized layer keeps no BPTT cache")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (B, T, E) input, got shape {x.shape}")
        batch, steps, _ = x.shape
        profiler = _profiler.ACTIVE
        if profiler is not None:
            start = perf_counter()
        xw = self.cell.project_inputs(x)
        if profiler is not None:
            profiler.record_projection(self.name, perf_counter() - start)
        state = self.start_state(batch)
        outputs = np.empty((batch, steps, self.hidden_size))
        for t in range(steps):
            h, state = self.step(x[:, t, :], state, xw[:, t, :])
            outputs[:, t, :] = h
        return outputs

    __call__ = forward


#: Layer types the engine knows how to wrap.
WRAPPABLE = (LSTMLayer, GRULayer, RNNLayer)


def wrap_layer(
    layer,
    predictor_factory: PredictorFactory,
    stats: ReuseRecorder,
    name: str,
) -> MemoizedRecurrentLayer:
    """Wrap a recurrent layer in its memoized counterpart."""
    if not isinstance(layer, WRAPPABLE):
        raise TypeError(f"cannot memoize layer of type {type(layer).__name__}")
    return MemoizedRecurrentLayer(layer, predictor_factory, stats, name=name)
