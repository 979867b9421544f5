"""Tests for the four benchmark models (forward shapes, training signal,
analysis hooks, memoization compatibility)."""

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import ReuseStats
from repro.datasets.sentiment import SentimentDataset
from repro.datasets.speech import SpeechDataset
from repro.datasets.translation import TranslationDataset
from repro.models.sentiment_model import SentimentModel
from repro.models.speech_model import SpeechModel
from repro.models.translation_model import TranslationModel
from repro.nn.optim import Adam


@pytest.fixture
def rng():
    return np.random.default_rng(43)


class TestSentimentModel:
    @pytest.fixture
    def setup(self, rng):
        dataset = SentimentDataset(num_documents=24, doc_length=10, seed=1)
        model = SentimentModel(dataset.vocab_size, 8, 10, rng=rng)
        return model, dataset

    def test_forward_shape(self, setup):
        model, dataset = setup
        assert model(dataset.tokens).shape == (24, 2)

    def test_predict_labels(self, setup):
        model, dataset = setup
        preds = model.predict(dataset.tokens)
        assert set(np.unique(preds)) <= {0, 1}

    def test_loss_decreases_with_training(self, setup):
        model, dataset = setup
        optimizer = Adam(model.parameters(), lr=5e-3)
        batch = (dataset.tokens, dataset.labels)
        losses = []
        for _ in range(15):
            model.zero_grad()
            losses.append(model.compute_loss(batch))
            optimizer.step()
        assert losses[-1] < losses[0] * 0.8

    def test_analysis_hooks(self, setup):
        model, dataset = setup
        hidden = model.collect_hidden(dataset.tokens[:4])
        assert len(hidden) == 1
        assert hidden[0].shape == (4, dataset.doc_length, 10)
        pairs = model.layer_io(dataset.tokens[:4])
        assert pairs[0][0] is model.lstm

    def test_memoizable(self, setup):
        model, dataset = setup
        stats = ReuseStats()
        with memoized(model, MemoizationScheme(theta=0.5), stats):
            model.predict(dataset.tokens[:4])
        assert stats.total_evaluations > 0


class TestSpeechModel:
    @pytest.fixture
    def dataset(self):
        return SpeechDataset(num_utterances=8, num_phonemes=5, seed=2)

    def test_deepspeech_factory_shape(self, dataset, rng):
        model = SpeechModel.deepspeech(dataset.feature_dim, 10, 2, 5, rng=rng)
        out = model(dataset.features[:3])
        assert out.shape == (3, dataset.num_frames, 5)

    def test_eesen_factory_shape(self, dataset, rng):
        model = SpeechModel.eesen(dataset.feature_dim, 6, 2, 5, rng=rng)
        out = model(dataset.features[:3])
        assert out.shape == (3, dataset.num_frames, 5)

    def test_transcribe_collapses(self, dataset, rng):
        model = SpeechModel.deepspeech(dataset.feature_dim, 10, 1, 5, rng=rng)
        transcripts = model.transcribe(dataset.features[:2])
        for t in transcripts:
            assert all(a != b for a, b in zip(t, t[1:]))

    def test_evaluate_returns_wer(self, dataset, rng):
        model = SpeechModel.deepspeech(dataset.feature_dim, 10, 1, 5, rng=rng)
        score = model.evaluate(dataset.features[:4], dataset.references(np.arange(4)))
        assert score >= 0.0

    def test_loss_decreases_with_training(self, dataset, rng):
        model = SpeechModel.deepspeech(dataset.feature_dim, 12, 1, 5, rng=rng)
        optimizer = Adam(model.parameters(), lr=5e-3)
        batch = (dataset.features, dataset.frame_labels)
        losses = []
        for _ in range(10):
            model.zero_grad()
            losses.append(model.compute_loss(batch))
            optimizer.step()
        assert losses[-1] < losses[0] * 0.9

    def test_analysis_hooks_bidirectional(self, dataset, rng):
        model = SpeechModel.eesen(dataset.feature_dim, 6, 2, 5, rng=rng)
        hidden = model.collect_hidden(dataset.features[:2])
        assert len(hidden) == 4  # 2 bi-layers x 2 directions
        pairs = model.layer_io(dataset.features[:2])
        assert len(pairs) == 4

    def test_memoizable(self, dataset, rng):
        model = SpeechModel.eesen(dataset.feature_dim, 6, 1, 5, rng=rng)
        stats = ReuseStats()
        with memoized(model, MemoizationScheme(theta=0.3), stats):
            model.transcribe(dataset.features[:2])
        # Both directions of the bidirectional layer recorded.
        layers = {layer for (layer, _) in stats.total}
        assert len(layers) == 2


class TestTranslationModel:
    @pytest.fixture
    def setup(self, rng):
        dataset = TranslationDataset(num_pairs=16, vocab_size=5, length=4, seed=3)
        model = TranslationModel(
            dataset.vocab_size, dataset.target_vocab_size, 8, 12, rng=rng
        )
        return model, dataset

    def test_teacher_forced_shape(self, setup):
        model, dataset = setup
        dec_in, _ = dataset.decoder_io(np.arange(4))
        logits = model(dataset.source[:4], dec_in)
        assert logits.shape == (4, 5, dataset.target_vocab_size)

    def test_translate_stops_at_eos_or_max(self, setup):
        model, dataset = setup
        hyps = model.translate(dataset.source[:4], max_len=6)
        assert len(hyps) == 4
        assert all(len(h) <= 6 for h in hyps)

    def test_loss_decreases_with_training(self, setup):
        model, dataset = setup
        optimizer = Adam(model.parameters(), lr=8e-3)
        dec_in, dec_tgt = dataset.decoder_io(np.arange(16))
        batch = (dataset.source, dec_in, dec_tgt)
        losses = []
        for _ in range(30):
            model.zero_grad()
            losses.append(model.compute_loss(batch))
            optimizer.step()
        assert losses[-1] < losses[0] * 0.75

    def test_encoder_receives_gradient(self, setup):
        """The context-vector path must train the encoder."""
        model, dataset = setup
        dec_in, dec_tgt = dataset.decoder_io(np.arange(8))
        model.zero_grad()
        model.compute_loss((dataset.source[:8], dec_in, dec_tgt))
        cell = model.encoder.cell
        grad_norm = float(np.abs(cell.w_x.grad[cell.gate_rows(("i",))]).sum())
        assert grad_norm > 0.0

    def test_evaluate_returns_bleu(self, setup):
        model, dataset = setup
        score = model.evaluate(
            dataset.source[:4], dataset.references(np.arange(4)), max_len=6
        )
        assert 0.0 <= score <= 100.0

    def test_memoizable_through_greedy_decode(self, setup):
        model, dataset = setup
        stats = ReuseStats()
        with memoized(model, MemoizationScheme(theta=0.4), stats):
            model.translate(dataset.source[:4], max_len=6)
        layers = {layer for (layer, _) in stats.total}
        assert layers == {"encoder", "decoder"}

    def test_analysis_hooks(self, setup):
        model, dataset = setup
        dec_in, _ = dataset.decoder_io(np.arange(4))
        hidden = model.collect_hidden(dataset.source[:4], dec_in)
        assert len(hidden) == 2
        pairs = model.layer_io(dataset.source[:4], dec_in)
        assert pairs[0][0] is model.encoder
        assert pairs[1][0] is model.decoder
