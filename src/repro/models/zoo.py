"""Concrete, trainable instances of the four Table 1 networks.

The paper's geometries (5x800 GRU, 10x320 BiLSTM, ...) are infeasible to
train offline in numpy, so each benchmark is instantiated at a scaled
geometry that keeps the architecture shape (cell type, directionality,
relative depth).  ``scale="tiny"`` targets test-suite speed,
``scale="bench"`` the reproduction benches.  Instances are cached per
``(name, scale, seed)`` because several benches share a trained model.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.datasets.base import batched_indices
from repro.datasets.sentiment import SentimentDataset
from repro.datasets.speech import SpeechDataset
from repro.datasets.translation import TranslationDataset
from repro.metrics.accumulators import (
    AccuracyAccumulator,
    BLEUAccumulator,
    WERAccumulator,
)
from repro.models.benchmark import Benchmark, split_validation
from repro.models.sentiment_model import SentimentModel
from repro.models.specs import PAPER_NETWORKS, NetworkSpec
from repro.models.speech_model import SpeechModel
from repro.models.translation_model import TranslationModel

Array = np.ndarray

SCALES = ("tiny", "bench")


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


def _token_row(row: object, vocab: int, what: str) -> Array:
    """A JSON token row: a non-empty list of ints in ``[0, vocab)``."""
    if not isinstance(row, list) or not row:
        raise ValueError(f"each {what} row must be a non-empty list of ints")
    if not all(isinstance(token, int) and not isinstance(token, bool)
               for token in row):
        raise ValueError(f"{what} tokens must be integers")
    if not all(0 <= token < vocab for token in row):
        raise ValueError(f"{what} tokens must be in [0, {vocab})")
    return np.asarray(row, dtype=np.int64)


class SentimentBenchmark(Benchmark):
    """IMDB stand-in: Embedding -> 1-layer LSTM -> 2-way classifier."""

    task = "sentiment"

    def __init__(self, scale: str = "tiny", seed: int = 0):
        _check_scale(scale)
        super().__init__(PAPER_NETWORKS["imdb"], seed=seed, scale=scale)
        rng = np.random.default_rng(seed)
        big = scale == "bench"
        self.dataset = SentimentDataset(
            num_documents=192 if big else 96,
            vocab_size=64,
            doc_length=30 if big else 20,
            seed=seed,
        )
        self._model = SentimentModel(
            vocab_size=self.dataset.vocab_size,
            embed_dim=16,
            hidden_size=32 if big else 20,
            rng=rng,
        )
        all_train, self.test_idx = self.dataset.split()
        self.train_idx, self.val_idx = split_validation(all_train, seed)
        self.batch_size = 16

    @property
    def model(self) -> SentimentModel:
        return self._model

    def default_epochs(self) -> int:
        return 16

    def training_batches(self, epoch: int):
        rng = np.random.default_rng(self.seed * 1000 + epoch)
        return [
            (self.dataset.tokens[idx], self.dataset.labels[idx])
            for idx in batched_indices(len(self.train_idx), self.batch_size, rng)
            for idx in [self.train_idx[idx]]
        ]

    def rows(self, indices: Array) -> Array:
        return self.dataset.tokens[indices]

    def validate_row(self, row: object) -> Array:
        return _token_row(row, self.dataset.vocab_size, "token")

    def outputs(self, batch: Array, model=None) -> List[int]:
        model = self.model if model is None else model
        return [int(label) for label in model.predict(batch)]

    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[AccuracyAccumulator]:
        accumulators = [AccuracyAccumulator() for _ in range(blocks)]
        indices = np.asarray(indices)
        if indices.size:
            labels = self.dataset.labels[indices]
            for accumulator, block in zip(
                accumulators, self._block_outputs(indices, blocks)
            ):
                accumulator.update(block, labels)
        return accumulators

    def hidden_sequences(self) -> List[Array]:
        return self.model.collect_hidden(self.dataset.tokens[self.test_idx])

    def layer_io_pairs(self):
        return self.model.layer_io(self.dataset.tokens[self.test_idx])


class _SpeechBenchmark(Benchmark):
    """Shared logic for the two speech networks."""

    task = "speech"

    def __init__(self, spec: NetworkSpec, scale: str, seed: int):
        _check_scale(scale)
        super().__init__(spec, seed=seed, scale=scale)
        big = scale == "bench"
        self.dataset = SpeechDataset(
            num_utterances=96 if big else 32,
            num_phonemes=10 if big else 8,
            feature_dim=24 if big else 12,
            phones_per_utterance=10 if big else 5,
            frames_per_phone=8 if big else 6,
            noise=0.1 if big else 0.05,
            seed=seed,
        )
        self._model = self._build_model(scale, np.random.default_rng(seed))
        all_train, self.test_idx = self.dataset.split()
        self.train_idx, self.val_idx = split_validation(all_train, seed)
        self.batch_size = 8

    def _build_model(self, scale: str, rng) -> SpeechModel:
        raise NotImplementedError

    @property
    def model(self) -> SpeechModel:
        return self._model

    def default_epochs(self) -> int:
        # The bench-scale corpus converges quickly; training longer
        # sharpens decision boundaries and makes the (saturated) model
        # unnaturally brittle to memoization noise.
        return 15 if self.dataset.num_utterances >= 96 else 30

    def training_batches(self, epoch: int):
        rng = np.random.default_rng(self.seed * 1000 + epoch)
        return [
            (self.dataset.features[idx], self.dataset.frame_labels[idx])
            for idx in batched_indices(len(self.train_idx), self.batch_size, rng)
            for idx in [self.train_idx[idx]]
        ]

    def rows(self, indices: Array) -> Array:
        return self.dataset.features[indices]

    def validate_row(self, row: object) -> Array:
        not_numbers = "each speech row must be a (frames x features) array of numbers"
        try:
            frames = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(not_numbers) from None
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError("each speech row must be a non-empty "
                             "(frames x features) array")
        # np.asarray reads booleans and numeric strings as numbers too.
        if not all(
            isinstance(cell, (int, float)) and not isinstance(cell, bool)
            for frame in row
            for cell in frame
        ):
            raise ValueError(not_numbers)
        if frames.shape[1] != self.dataset.feature_dim:
            raise ValueError(
                f"speech rows must have {self.dataset.feature_dim} features "
                f"per frame, got {frames.shape[1]}"
            )
        if not np.isfinite(frames).all():
            raise ValueError("speech rows must be finite numbers")
        return frames

    def outputs(self, batch: Array, model=None) -> List[List[int]]:
        model = self.model if model is None else model
        return [list(transcript) for transcript in model.transcribe(batch)]

    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[WERAccumulator]:
        accumulators = [WERAccumulator() for _ in range(blocks)]
        indices = np.asarray(indices)
        if indices.size:
            references = self.dataset.references(indices)
            for accumulator, block in zip(
                accumulators, self._block_outputs(indices, blocks)
            ):
                accumulator.update(references, block)
        return accumulators

    def hidden_sequences(self) -> List[Array]:
        return self.model.collect_hidden(self.dataset.features[self.test_idx])

    def layer_io_pairs(self):
        return self.model.layer_io(self.dataset.features[self.test_idx])


class DeepSpeechBenchmark(_SpeechBenchmark):
    """DeepSpeech2 stand-in: unidirectional GRU stack."""

    streamable = True

    def __init__(self, scale: str = "tiny", seed: int = 0):
        super().__init__(PAPER_NETWORKS["deepspeech2"], scale, seed)

    def _build_model(self, scale: str, rng) -> SpeechModel:
        big = scale == "bench"
        return SpeechModel.deepspeech(
            feature_dim=self.dataset.feature_dim,
            hidden_size=32 if big else 20,
            num_layers=3 if big else 2,
            num_phonemes=self.dataset.num_phonemes,
            rng=rng,
        )


class EESENBenchmark(_SpeechBenchmark):
    """EESEN stand-in: bidirectional LSTM stack."""

    def __init__(self, scale: str = "tiny", seed: int = 0):
        super().__init__(PAPER_NETWORKS["eesen"], scale, seed)

    def _build_model(self, scale: str, rng) -> SpeechModel:
        big = scale == "bench"
        return SpeechModel.eesen(
            feature_dim=self.dataset.feature_dim,
            hidden_size=20 if big else 12,
            num_bi_layers=2 if big else 1,
            num_phonemes=self.dataset.num_phonemes,
            rng=rng,
        )


class TranslationBenchmark(Benchmark):
    """MNMT stand-in: encoder-decoder LSTM scored with BLEU."""

    task = "translation"

    def __init__(self, scale: str = "tiny", seed: int = 0):
        _check_scale(scale)
        super().__init__(PAPER_NETWORKS["mnmt"], seed=seed, scale=scale)
        big = scale == "bench"
        self.dataset = TranslationDataset(
            num_pairs=400 if big else 300,
            vocab_size=6,
            length=6 if big else 5,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        self._model = TranslationModel(
            src_vocab=self.dataset.vocab_size,
            tgt_vocab=self.dataset.target_vocab_size,
            embed_dim=16,
            hidden_size=64 if big else 48,
            rng=rng,
        )
        all_train, self.test_idx = self.dataset.split()
        self.train_idx, self.val_idx = split_validation(all_train, seed)
        self.batch_size = 16

    @property
    def model(self) -> TranslationModel:
        return self._model

    def default_epochs(self) -> int:
        return 100

    def learning_rate(self) -> float:
        return 8e-3

    def training_batches(self, epoch: int):
        rng = np.random.default_rng(self.seed * 1000 + epoch)
        batches = []
        for idx in batched_indices(len(self.train_idx), self.batch_size, rng):
            rows = self.train_idx[idx]
            dec_in, dec_tgt = self.dataset.decoder_io(rows)
            batches.append((self.dataset.source[rows], dec_in, dec_tgt))
        return batches

    def rows(self, indices: Array) -> Array:
        return self.dataset.source[indices]

    def validate_row(self, row: object) -> Array:
        return _token_row(row, self.dataset.vocab_size, "source")

    def outputs(self, batch: Array, model=None) -> List[List[int]]:
        """Greedy translations, decoded for ``length + 2`` steps: the
        reference's ``length`` tokens, its EOS and one spare step."""
        model = self.model if model is None else model
        hypotheses = model.translate(batch, max_len=self.dataset.length + 2)
        return [list(hypothesis) for hypothesis in hypotheses]

    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[BLEUAccumulator]:
        accumulators = [BLEUAccumulator() for _ in range(blocks)]
        indices = np.asarray(indices)
        if indices.size:
            references = self.dataset.references(indices)
            for accumulator, block in zip(
                accumulators, self._block_outputs(indices, blocks)
            ):
                accumulator.update(references, block)
        return accumulators

    def hidden_sequences(self) -> List[Array]:
        dec_in, _ = self.dataset.decoder_io(self.test_idx)
        return self.model.collect_hidden(self.dataset.source[self.test_idx], dec_in)

    def layer_io_pairs(self):
        dec_in, _ = self.dataset.decoder_io(self.test_idx)
        return self.model.layer_io(self.dataset.source[self.test_idx], dec_in)


_BUILDERS = {
    "imdb": SentimentBenchmark,
    "deepspeech2": DeepSpeechBenchmark,
    "eesen": EESENBenchmark,
    "mnmt": TranslationBenchmark,
}

_CACHE: Dict[Tuple[str, str, int, bool], Benchmark] = {}


def build_benchmark(name: str, scale: str = "tiny", seed: int = 0) -> Benchmark:
    """Fresh, untrained benchmark instance."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(_BUILDERS)}"
        ) from None
    return builder(scale=scale, seed=seed)


def load_benchmark(
    name: str, scale: str = "tiny", seed: int = 0, trained: bool = True
) -> Benchmark:
    """Cached (and, by default, trained) benchmark instance.

    Training small numpy RNNs takes seconds but several benches share the
    same models; the cache amortises that within a process.
    """
    key = (name, scale, seed, trained)
    if key not in _CACHE:
        benchmark = build_benchmark(name, scale=scale, seed=seed)
        if trained:
            benchmark.train()
        _CACHE[key] = benchmark
    return _CACHE[key]
