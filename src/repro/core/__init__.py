"""Neuron-level fuzzy memoization — the paper's contribution.

Public surface:

- :func:`binarize` / :class:`BinaryGate` — Equations 7-8 and Figure 9.
- :class:`MemoizationScheme` + :func:`memoized` — apply the scheme to any
  model built on :mod:`repro.nn`.
- Predictors (:class:`BNNGatePredictor`, :class:`OracleGatePredictor`,
  :class:`InputSimilarityGatePredictor`) — Figures 6 and 10.
- :class:`ReuseStats` / :func:`output_change_profile` — measurement.
- :func:`calibrate_threshold` — §3.2.1 threshold selection.
- :mod:`repro.core.correlation` — Figures 7-8 analysis.
"""

from repro.core.binarization import (
    binarize,
    binarize_bits,
    binary_dot,
    binary_dot_packed,
    pack_signs,
)
from repro.core.bnn import BinaryGate
from repro.core.calibration import (
    SweepPoint,
    ThresholdSweep,
    calibrate_per_layer,
    calibrate_threshold,
    sweep_thresholds,
)
from repro.core.correlation import (
    CorrelationSamples,
    collect_gate_samples,
    correlation_histogram,
    fraction_above,
    layer_correlations,
)
from repro.core.engine import (
    MemoizationScheme,
    apply_memoization,
    memoized,
    restore,
)
from repro.core.layers import MemoizedRecurrentLayer, wrap_layer
from repro.core.memo import MemoTable
from repro.core.quantization import (
    LinearQuantizer,
    quantize_fp16,
    quantize_module,
)
from repro.core.predictors import (
    BNNGatePredictor,
    GatePredictor,
    InputSimilarityGatePredictor,
    OracleGatePredictor,
)
from repro.core.stats import (
    BlockReuseRecorder,
    DetailedReuseStats,
    ReuseRecorder,
    ReuseStats,
    output_change_profile,
    profile_summary,
    relative_change,
)

__all__ = [
    "BNNGatePredictor",
    "BlockReuseRecorder",
    "DetailedReuseStats",
    "LinearQuantizer",
    "quantize_fp16",
    "quantize_module",
    "BinaryGate",
    "CorrelationSamples",
    "GatePredictor",
    "InputSimilarityGatePredictor",
    "MemoTable",
    "MemoizationScheme",
    "MemoizedRecurrentLayer",
    "OracleGatePredictor",
    "ReuseRecorder",
    "ReuseStats",
    "SweepPoint",
    "ThresholdSweep",
    "apply_memoization",
    "binarize",
    "binarize_bits",
    "binary_dot",
    "binary_dot_packed",
    "calibrate_per_layer",
    "calibrate_threshold",
    "collect_gate_samples",
    "correlation_histogram",
    "fraction_above",
    "layer_correlations",
    "memoized",
    "output_change_profile",
    "pack_signs",
    "profile_summary",
    "relative_change",
    "restore",
    "sweep_thresholds",
    "wrap_layer",
]
