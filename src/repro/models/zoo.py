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
from repro.models.benchmark import Benchmark, split_blocks, split_validation
from repro.models.sentiment_model import SentimentModel
from repro.models.specs import PAPER_NETWORKS, NetworkSpec
from repro.models.speech_model import SpeechModel
from repro.models.translation_model import TranslationModel

Array = np.ndarray

SCALES = ("tiny", "bench")


def _check_scale(scale: str) -> None:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")


class SentimentBenchmark(Benchmark):
    """IMDB stand-in: Embedding -> 1-layer LSTM -> 2-way classifier."""

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

    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[AccuracyAccumulator]:
        accumulators = [AccuracyAccumulator() for _ in range(blocks)]
        indices = np.asarray(indices)
        if indices.size:
            predictions = self.model.predict(
                self.dataset.tokens[np.tile(indices, blocks)]
            )
            labels = self.dataset.labels[indices]
            for accumulator, block in zip(
                accumulators, split_blocks(predictions, blocks)
            ):
                accumulator.update(block, labels)
        return accumulators

    def hidden_sequences(self) -> List[Array]:
        return self.model.collect_hidden(self.dataset.tokens[self.test_idx])

    def layer_io_pairs(self):
        return self.model.layer_io(self.dataset.tokens[self.test_idx])


class _SpeechBenchmark(Benchmark):
    """Shared logic for the two speech networks."""

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

    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[WERAccumulator]:
        accumulators = [WERAccumulator() for _ in range(blocks)]
        indices = np.asarray(indices)
        if indices.size:
            transcripts = self.model.transcribe(
                self.dataset.features[np.tile(indices, blocks)]
            )
            references = self.dataset.references(indices)
            for accumulator, block in zip(
                accumulators, split_blocks(transcripts, blocks)
            ):
                accumulator.update(references, block)
        return accumulators

    def hidden_sequences(self) -> List[Array]:
        return self.model.collect_hidden(self.dataset.features[self.test_idx])

    def layer_io_pairs(self):
        return self.model.layer_io(self.dataset.features[self.test_idx])


class DeepSpeechBenchmark(_SpeechBenchmark):
    """DeepSpeech2 stand-in: unidirectional GRU stack."""

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

    def quality_accumulators(
        self, indices: Array, blocks: int
    ) -> List[BLEUAccumulator]:
        accumulators = [BLEUAccumulator() for _ in range(blocks)]
        indices = np.asarray(indices)
        if indices.size:
            # early_stop=False: each row must see a batch-independent
            # number of decoder steps or shard merges and stacked blocks
            # would not reproduce the whole-split reuse statistics (see
            # translate()).
            hypotheses = self.model.translate(
                self.dataset.source[np.tile(indices, blocks)],
                max_len=self.dataset.length + 2,
                early_stop=False,
            )
            references = list(self.dataset.references(indices))
            for accumulator, block in zip(
                accumulators, split_blocks(hypotheses, blocks)
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


def all_benchmarks(scale: str = "tiny", seed: int = 0) -> List[Benchmark]:
    """All four Table 1 networks, trained and cached."""
    return [load_benchmark(name, scale=scale, seed=seed) for name in _BUILDERS]
