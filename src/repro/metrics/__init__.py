"""Evaluation metrics used by the paper's four benchmarks.

- WER (word error rate) for the two speech networks (DeepSpeech2, EESEN),
- BLEU for the machine-translation network (MNMT),
- classification accuracy for IMDB sentiment,
- Pearson correlation for the BNN/RNN output-correlation analysis.

Each corpus metric also has a *mergeable accumulator*
(:mod:`repro.metrics.accumulators`) carrying its integer sufficient
statistics, which is what makes batch-sharded evaluation merge
bitwise-identically to the whole-split computation.  Benchmarks score
only through the accumulators; the corpus functions are the references
the accumulator tests compare against.
"""

from repro.metrics.accumulators import (
    ACCUMULATOR_KINDS,
    AccuracyAccumulator,
    BLEUAccumulator,
    MetricAccumulator,
    WERAccumulator,
    accumulator_from_payload,
)
from repro.metrics.accuracy import accuracy
from repro.metrics.bleu import bleu, corpus_bleu
from repro.metrics.correlation import pearson
from repro.metrics.wer import edit_distance, wer

__all__ = [
    "ACCUMULATOR_KINDS",
    "AccuracyAccumulator",
    "BLEUAccumulator",
    "MetricAccumulator",
    "WERAccumulator",
    "accumulator_from_payload",
    "accuracy",
    "bleu",
    "corpus_bleu",
    "edit_distance",
    "pearson",
    "wer",
]
