"""Benchmark harness: trained model + dataset + quality/loss conventions.

A :class:`Benchmark` bundles everything the experiments need for one of
the paper's four networks: a scaled functional instance that can be
trained in seconds, its test split, the quality metric, the loss
convention (WER *increases*, accuracy/BLEU *decrease*), and memoized
evaluation under any :class:`~repro.core.engine.MemoizationScheme`.

Evaluation is *shardable*: ``evaluate_memoized(..., shard=(i, n))``
evaluates the ``i``-th of ``n`` deterministic partitions of the split,
and the whole split is the single shard :data:`WHOLE` ``= (0, 1)``.
Every :class:`MemoizedResult` carries a mergeable
:class:`~repro.metrics.accumulators.MetricAccumulator`, and
:func:`merge_shard_results` reduces the partials to the result of the
unsharded run: no row's computation reads another row (predictor state
is per row and decoders never couple rows), and both the quality metrics
and the reuse counters reduce over exact integer sums.

The same row independence lets a sweep's points share one pass:
:meth:`Benchmark.evaluate_memoized_many` tiles a shard's rows once per
scheme, runs the model once over the stacked blocks with each block
compared against its own threshold, and splits predictions and reuse
counts back into one result per scheme.

What sharding and stacking preserve, and what the shard, stacking and
golden tests verify, is the discrete result: predicted labels, decoded
sequences, corpus quality and reuse counts.  The float activations
behind them are not bitwise invariant under batch slicing or tiling,
because a BLAS GEMM may round a row differently depending on how many
rows it computes at once (with numpy 2.4.6 and OpenBLAS 0.3.31 a one-row
LSTM forward differs from the same row inside a 4-row batch by up to
4e-16, and tiling bench-scale deepspeech2's calibration rows 8x moves
its activations by up to 5.1e-15).  Differences of that size have not
flipped a sign bit, a reuse decision or an output on any verified split.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import BlockReuseRecorder, ReuseStats
from repro.metrics.accumulators import MetricAccumulator
from repro.models.specs import NetworkSpec
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer, TrainingLog

Array = np.ndarray

#: ``(shard_index, shard_count)`` — the i-th of n split partitions.
Shard = Tuple[int, int]

#: The whole evaluation split, as a shard.
WHOLE: Shard = (0, 1)


def check_shard(shard_index: int, shard_count: int) -> None:
    """Raise ``ValueError`` unless ``0 <= shard_index < shard_count``."""
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    if not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )


def shard_indices(indices: Array, shard_index: int, shard_count: int) -> Array:
    """Deterministic contiguous partition of evaluation indices.

    ``np.array_split`` semantics: shards differ in size by at most one
    row, concatenating the shards in index order restores ``indices``
    exactly, and a ``shard_count`` larger than ``len(indices)`` yields
    empty trailing shards (which evaluate to empty partial results).
    """
    check_shard(shard_index, shard_count)
    return np.array_split(np.asarray(indices), shard_count)[shard_index]


def split_blocks(outputs: Sequence, blocks: int) -> List[Sequence]:
    """Split a stacked evaluation's per-row outputs into its ``blocks``
    equal, consecutive row blocks."""
    rows = len(outputs) // blocks
    return [outputs[k * rows : (k + 1) * rows] for k in range(blocks)]


def split_validation(
    train_indices: Array, seed: int, fraction: float = 0.25
) -> Tuple[Array, Array]:
    """Carve a calibration/validation subset out of the training indices.

    §3.2.1 explores thresholds on training data; our scaled models
    memorise their tiny training sets, which would make the exploration
    blind to memoization damage.  Holding out a slice of the training
    data (never used for weight updates) restores the paper's intent:
    thresholds are chosen without touching the test set.
    """
    train_indices = np.asarray(train_indices)
    if len(train_indices) < 2:
        raise ValueError("need at least two training items to split")
    rng = np.random.default_rng(seed + 17)
    order = rng.permutation(len(train_indices))
    n_val = max(1, int(round(len(train_indices) * fraction)))
    val = np.sort(train_indices[order[:n_val]])
    fit = np.sort(train_indices[order[n_val:]])
    return fit, val


@dataclass(frozen=True)
class MemoizedResult:
    """Outcome of one memoized evaluation of one shard of the split.

    Every result carries the mergeable ``metric`` accumulator and the
    benchmark's ``base_quality``, so :func:`merge_shard_results` can
    reduce results without a live (trained) benchmark.  For the whole
    split (:data:`WHOLE`) ``quality``/``quality_loss`` are final; for a
    partial shard they are *shard-local* values (informational only —
    corpus metrics such as BLEU and WER do not average across shards).
    """

    quality: float
    quality_loss: float
    reuse_fraction: float
    stats: ReuseStats
    metric: MetricAccumulator
    base_quality: float

    @property
    def reuse_percent(self) -> float:
        return 100.0 * self.reuse_fraction


class Benchmark(ABC):
    """One of the paper's four networks, scaled to run offline.

    ``(name, scale, seed)`` is the benchmark's reproducible identity:
    the runner's job specs (:class:`repro.runner.SweepJob`) use it to
    rebuild an equivalent instance in worker processes and to key the
    on-disk result cache.
    """

    def __init__(self, spec: NetworkSpec, seed: int = 0, scale: str = "tiny"):
        self.spec = spec
        self.seed = seed
        self.scale = scale
        self.base_quality: Optional[float] = None
        self._trained = False

    @property
    def name(self) -> str:
        return self.spec.name

    # -- subclass surface ---------------------------------------------------

    @property
    @abstractmethod
    def model(self):
        """The underlying repro.nn model."""

    @abstractmethod
    def training_batches(self, epoch: int) -> Sequence[object]:
        """Batches for one training epoch."""

    @abstractmethod
    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[MetricAccumulator]:
        """Evaluate ``blocks`` copies of the rows in ``indices`` in one pass.

        The single evaluation primitive.  It runs the model once over
        ``np.tile(indices, blocks)`` and returns one mergeable
        accumulator per row block, in block order.  Whole-split quality
        is ``quality_accumulators(all_indices, 1)[0].finalize()``, and a
        shard's partial result is the same call on the shard's index
        subset.  Under a scheme stack (see
        :meth:`evaluate_memoized_many`) block ``k`` runs under scheme
        ``k``.  Implementations must evaluate each row independently of
        the others in the batch (no cross-row coupling) and must handle
        an empty ``indices`` without invoking the model.
        """

    @abstractmethod
    def hidden_sequences(self) -> List[Array]:
        """Per-layer hidden sequences on test inputs (Figure 5)."""

    @abstractmethod
    def layer_io_pairs(self) -> List[Tuple[object, Array]]:
        """(recurrent layer, its input) pairs (Figures 7-8)."""

    @abstractmethod
    def default_epochs(self) -> int:
        """Epoch budget that reaches a useful base quality."""

    def learning_rate(self) -> float:
        return 5e-3

    # -- shared behaviour -----------------------------------------------------

    def eval_indices(self, calibration: bool = False) -> Array:
        """Row indices of the evaluation split (test or calibration)."""
        return np.asarray(self.val_idx if calibration else self.test_idx)

    def evaluate(self) -> float:
        """Quality on the held-out split (metric per spec)."""
        return self.quality_accumulators(self.eval_indices(), 1)[0].finalize()

    def train(self, epochs: Optional[int] = None) -> TrainingLog:
        """Train to the base quality; idempotent re-training is allowed."""
        epochs = epochs if epochs is not None else self.default_epochs()
        optimizer = Adam(
            self.model.parameters(), lr=self.learning_rate(), clip_norm=5.0
        )
        log = Trainer(self.model, optimizer).fit(self.training_batches, epochs)
        self._trained = True
        self.base_quality = self.evaluate()
        return log

    def ensure_trained(self) -> None:
        if not self._trained:
            self.train()

    def quality_loss(self, quality: float) -> float:
        """The paper's loss convention vs. the base network.

        Accuracy/BLEU losses are drops; WER loss is an increase.  Losses
        are clamped at zero (noise-induced improvements count as zero).
        """
        if self.base_quality is None:
            raise RuntimeError("train() must run before quality_loss()")
        if self.spec.higher_is_better:
            return max(0.0, self.base_quality - quality)
        return max(0.0, quality - self.base_quality)

    def evaluate_memoized(
        self,
        scheme: MemoizationScheme,
        calibration: bool = False,
        shard: Shard = WHOLE,
    ) -> MemoizedResult:
        """Quality + reuse under a memoization scheme.

        The one-scheme case of :meth:`evaluate_memoized_many`.

        Args:
            scheme: the memoization configuration to evaluate under.
            calibration: evaluate on the calibration split instead of
                the test split.
            shard: ``(shard_index, shard_count)``; evaluates only that
                deterministic partition of the split, whose ``metric``
                accumulator and ``stats`` merge exactly (see
                :func:`merge_shard_results`).  The default
                :data:`WHOLE` is the whole split.
        """
        return self.evaluate_memoized_many([scheme], calibration, shard)[0]

    def evaluate_memoized_many(
        self,
        schemes: Sequence[MemoizationScheme],
        calibration: bool = False,
        shard: Shard = WHOLE,
    ) -> List[MemoizedResult]:
        """One result per scheme, from one memoized pass over the shard.

        The shard's rows are tiled once per scheme and the model runs
        once over the stack, block ``k`` under ``schemes[k]`` (see
        :func:`repro.core.engine.apply_memoization`).  Each result
        equals :meth:`evaluate_memoized` under its scheme alone: no row
        reads another, and quality and reuse accumulate per block.  The
        schemes must share ``predictor`` and ``throttle``.
        """
        self.ensure_trained()
        schemes = list(schemes)
        indices = shard_indices(self.eval_indices(calibration), *shard)
        rows = len(indices)
        blocks = [ReuseStats() for _ in schemes]
        # One scheme records through ReuseStats.record and compares a
        # scalar threshold: the unstacked evaluation, unchanged.
        recorder = blocks[0] if len(schemes) == 1 else BlockReuseRecorder(blocks, rows)
        with memoized(self.model, schemes, recorder, rows):
            metrics = self.quality_accumulators(indices, len(schemes))
        return [
            self._memoized_result(metric, stats, rows)
            for metric, stats in zip(metrics, blocks)
        ]

    def _memoized_result(
        self, metric: MetricAccumulator, stats: ReuseStats, rows: int
    ) -> MemoizedResult:
        if rows == 0:
            # Empty shard (shard_count > split size): no local quality;
            # the merged result recomputes it from the summed statistics.
            # Any other finalize() failure is a real error and propagates.
            quality = 0.0
        else:
            quality = metric.finalize()
        return MemoizedResult(
            quality=quality,
            quality_loss=self.quality_loss(quality),
            reuse_fraction=stats.reuse_fraction(),
            stats=stats,
            metric=metric,
            base_quality=self.base_quality,
        )


def merge_shard_results(
    results: Sequence[MemoizedResult], higher_is_better: bool
) -> MemoizedResult:
    """Reduce per-shard partial results to the whole-split result.

    Metric accumulators and reuse counters are summed (exact integer
    arithmetic), the merged accumulator is finalized into the corpus
    quality, and the loss convention is re-applied against the shards'
    shared ``base_quality`` — reproducing the unsharded
    :meth:`Benchmark.evaluate_memoized` bitwise.

    Args:
        results: results for every shard of one evaluation, in shard
            order.
        higher_is_better: the benchmark's loss convention
            (:attr:`NetworkSpec.higher_is_better`).

    Raises:
        ValueError: on an empty result list or inconsistent
            ``base_quality`` across shards.
    """
    if not results:
        raise ValueError("need at least one shard result")
    base_quality = results[0].base_quality
    if any(result.base_quality != base_quality for result in results):
        raise ValueError("shards disagree on base_quality; mixed evaluations?")

    metric = results[0].metric.copy()
    stats = ReuseStats()
    stats.merge(results[0].stats)
    for result in results[1:]:
        metric.merge(result.metric)
        stats.merge(result.stats)
    quality = metric.finalize()
    if higher_is_better:
        quality_loss = max(0.0, base_quality - quality)
    else:
        quality_loss = max(0.0, quality - base_quality)
    return MemoizedResult(
        quality=quality,
        quality_loss=quality_loss,
        reuse_fraction=stats.reuse_fraction(),
        stats=stats,
        metric=metric,
        base_quality=base_quality,
    )
