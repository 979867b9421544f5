"""BNN vs full-precision output correlation (paper Figures 7 and 8).

The memoization predictor is sound only because the binarized mirror of a
gate produces outputs that track the full-precision outputs (Anderson &
Berg's dot-product preservation).  These utilities measure that claim on
our networks: for every neuron they collect (full-precision, binary)
output pairs over a test run and compute per-neuron Pearson correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.binarization import pack_signs
from repro.core.bnn import BinaryGate
from repro.metrics.correlation import pearson
from repro.nn.cells import GatedCell, GatePhase
from repro.nn.gru import GRULayer
from repro.nn.lstm import LSTMLayer
from repro.nn.rnn import RNNLayer

Array = np.ndarray
RecurrentLayer = Union[LSTMLayer, GRULayer, RNNLayer]


@dataclass
class CorrelationSamples:
    """Paired (full-precision, binary) outputs for one gate.

    Shapes are ``(samples, neurons)`` with samples pooled over batch and
    time.
    """

    full: Array
    binary: Array

    def per_neuron(self) -> Array:
        """Pearson correlation per neuron, shape ``(neurons,)``."""
        return np.array(
            [
                pearson(self.full[:, n], self.binary[:, n])
                for n in range(self.full.shape[1])
            ]
        )

    def pooled(self) -> float:
        """Correlation over all neurons pooled together (Figure 7 view)."""
        return pearson(self.full.reshape(-1), self.binary.reshape(-1))


class _RecordingHook:
    """A pure-observer :class:`~repro.nn.cells.MemoHook`.

    For every gate phase it captures the full-precision pre-activation
    blocks and evaluates the phase's binary mirror on the phase operand
    (which for the GRU candidate is the resolved ``r_t * h_{t-1}`` —
    exactly what the hardware FMU would binarize), returning ``preacts``
    untouched so the trajectory is the layer's own.  The mirror is the
    engine's: one :class:`~repro.core.bnn.BinaryGate` over the phase's
    stacked weights, evaluated by the packed popcount kernel, whose
    ``(B, G*H)`` output splits into the same per-gate column blocks as
    ``preacts``.
    """

    def __init__(self, cell: GatedCell):
        self.mirrors = [
            BinaryGate(*cell.stacked_gate_weights(phase.gates))
            for phase in cell.PHASES
        ]
        self.full: Dict[str, List[Array]] = {g: [] for g in cell.gate_names}
        self.binary: Dict[str, List[Array]] = {g: [] for g in cell.gate_names}

    def on_gates(
        self,
        cell: GatedCell,
        phase: GatePhase,
        x: Array,
        h: Array,
        preacts: Array,
    ) -> Array:
        hidden = cell.hidden_size
        mirror = self.mirrors[phase.index]
        binary = mirror.evaluate_packed(pack_signs(x, h))
        for i, gate in enumerate(phase.gates):
            columns = slice(i * hidden, (i + 1) * hidden)
            self.full[gate].append(preacts[:, columns].copy())
            self.binary[gate].append(binary[:, columns])
        return preacts


def collect_gate_samples(
    layer: RecurrentLayer, inputs: Array
) -> Dict[str, CorrelationSamples]:
    """Run ``inputs`` (B, T, E) through ``layer``, pairing full-precision
    and binary pre-activations for every gate.

    The binary mirrors are built with Figure 9's construction (sign
    binarization of the gate's concatenated weights).  Collection rides
    the cell's own ``step_hooked`` path via a recording hook, so it works
    for any :class:`~repro.nn.cells.GatedCell` without special-casing.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise ValueError(f"expected (B, T, E) inputs, got {inputs.shape}")
    cell = layer.cell
    hook = _RecordingHook(cell)
    batch, steps, _ = inputs.shape
    state = layer.start_state(batch)
    for t in range(steps):
        _, state = layer.step(inputs[:, t, :], state, hook=hook)

    return {
        gate: CorrelationSamples(
            full=np.concatenate(hook.full[gate], axis=0),
            binary=np.concatenate(hook.binary[gate], axis=0).astype(np.float64),
        )
        for gate in cell.gate_names
    }


def layer_correlations(layer: RecurrentLayer, inputs: Array) -> Array:
    """Per-neuron correlations pooled over all gates of ``layer``."""
    samples = collect_gate_samples(layer, inputs)
    return np.concatenate([s.per_neuron() for s in samples.values()])


def correlation_histogram(
    correlations: Array, bins: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
) -> Tuple[Array, Array]:
    """Figure 8 histogram: percentage of neurons per correlation bin.

    Negative correlations are clipped to 0 (they occupy the lowest bin,
    matching the paper's axis).
    """
    correlations = np.clip(np.asarray(correlations, dtype=np.float64), 0.0, 1.0)
    edges = np.asarray(bins, dtype=np.float64)
    counts, _ = np.histogram(correlations, bins=edges)
    if correlations.size == 0:
        raise ValueError("no correlations supplied")
    percent = 100.0 * counts / correlations.size
    return percent, edges


def fraction_above(correlations: Array, threshold: float) -> float:
    """Fraction of neurons with correlation above ``threshold``.

    The paper quotes "85% of neurons have R > 0.8" for three networks.
    """
    correlations = np.asarray(correlations)
    if correlations.size == 0:
        raise ValueError("no correlations supplied")
    return float(np.mean(correlations > threshold))
