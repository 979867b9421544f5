"""Tests for the three synthetic workload generators."""

import numpy as np
import pytest

from repro.datasets.base import Batch, batched_indices, train_test_split
from repro.datasets.sentiment import SentimentDataset
from repro.datasets.speech import SpeechDataset, collapse
from repro.datasets.translation import BOS, EOS, TranslationDataset


class TestBase:
    def test_batch_size(self):
        batch = Batch(np.zeros((4, 3)), np.zeros(4))
        assert batch.size == 4

    def test_split_covers_everything(self):
        rng = np.random.default_rng(0)
        train, test = train_test_split(list(range(20)), 0.25, rng)
        assert sorted(train + test) == list(range(20))
        assert len(test) == 5

    def test_split_invalid_fraction(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], 0.0, rng)

    def test_batched_indices_cover_range(self):
        chunks = list(batched_indices(10, 3))
        flat = np.concatenate(chunks)
        np.testing.assert_array_equal(np.sort(flat), np.arange(10))

    def test_batched_indices_shuffled(self):
        rng = np.random.default_rng(0)
        flat = np.concatenate(list(batched_indices(50, 7, rng)))
        assert not np.array_equal(flat, np.arange(50))
        np.testing.assert_array_equal(np.sort(flat), np.arange(50))

    def test_batched_indices_invalid(self):
        with pytest.raises(ValueError):
            list(batched_indices(10, 0))


class TestCollapse:
    def test_merges_runs(self):
        assert collapse([1, 1, 2, 2, 2, 1]) == (1, 2, 1)

    def test_empty(self):
        assert collapse([]) == ()

    def test_single(self):
        assert collapse([5]) == (5,)


class TestSpeechDataset:
    @pytest.fixture
    def dataset(self):
        return SpeechDataset(num_utterances=8, seed=3)

    def test_shapes(self, dataset):
        steps = dataset.phones_per_utterance * dataset.frames_per_phone
        assert dataset.features.shape == (8, steps, dataset.feature_dim)
        assert dataset.frame_labels.shape == (8, steps)
        assert len(dataset.transcripts) == 8

    def test_deterministic(self):
        a = SpeechDataset(num_utterances=4, seed=7)
        b = SpeechDataset(num_utterances=4, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        assert a.transcripts == b.transcripts

    def test_different_seeds_differ(self):
        a = SpeechDataset(num_utterances=4, seed=7)
        b = SpeechDataset(num_utterances=4, seed=8)
        assert not np.array_equal(a.features, b.features)

    def test_transcripts_match_collapsed_labels(self, dataset):
        for u in range(8):
            assert collapse(dataset.frame_labels[u]) == dataset.transcripts[u]

    def test_decode_frames(self, dataset):
        """Collapse decodes a (B, T) batch of frame labels to the
        transcripts however long each phone is held, as plain ints."""
        stretched = np.repeat(dataset.frame_labels[:2], 3, axis=1)
        decoded = [collapse(row) for row in stretched]
        assert decoded == dataset.transcripts[:2]
        assert all(type(label) is int for row in decoded for label in row)

    def test_no_consecutive_phoneme_repeats(self, dataset):
        for transcript in dataset.transcripts:
            assert all(a != b for a, b in zip(transcript, transcript[1:]))

    def test_temporal_smoothness(self, dataset):
        """Consecutive frames must be far more similar than random pairs
        — the property the whole paper rests on."""
        feats = dataset.features
        consecutive = np.linalg.norm(np.diff(feats, axis=1), axis=-1).mean()
        rng = np.random.default_rng(0)
        idx = rng.permutation(feats.shape[1])
        shuffled = np.linalg.norm(
            feats[:, idx[:-1], :] - feats[:, idx[1:], :], axis=-1
        ).mean()
        assert consecutive < 0.5 * shuffled

    def test_split_disjoint(self, dataset):
        train, test = dataset.split()
        assert set(train).isdisjoint(test)
        assert len(train) + len(test) == 8

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SpeechDataset(num_phonemes=1)
        with pytest.raises(ValueError):
            SpeechDataset(attack_frames=10, frames_per_phone=8)


class TestSentimentDataset:
    @pytest.fixture
    def dataset(self):
        return SentimentDataset(num_documents=32, seed=5)

    def test_shapes(self, dataset):
        assert dataset.tokens.shape == (32, dataset.doc_length)
        assert dataset.labels.shape == (32,)

    def test_labels_binary(self, dataset):
        assert set(np.unique(dataset.labels)) <= {0, 1}

    def test_labels_consistent_with_valence(self, dataset):
        """The realised label must match the majority valence — the task
        is noise-free by construction."""
        for doc, label in zip(dataset.tokens, dataset.labels):
            valence = sum(dataset.valence_of(int(t)) for t in doc)
            assert (valence > 0) == (label == 1)
            assert valence != 0

    def test_both_classes_present(self, dataset):
        assert len(np.unique(dataset.labels)) == 2

    def test_deterministic(self):
        a = SentimentDataset(num_documents=16, seed=9)
        b = SentimentDataset(num_documents=16, seed=9)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_tokens_in_vocab(self, dataset):
        assert dataset.tokens.min() >= 0
        assert dataset.tokens.max() < dataset.vocab_size

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SentimentDataset(vocab_size=10, valence_words=8)
        with pytest.raises(ValueError):
            SentimentDataset(signal_rate=0.0)

    def test_valence_partition(self, dataset):
        assert dataset.valence_of(0) == 1
        assert dataset.valence_of(dataset.valence_words) == -1
        assert dataset.valence_of(2 * dataset.valence_words) == 0


class TestTranslationDataset:
    @pytest.fixture
    def dataset(self):
        return TranslationDataset(num_pairs=24, vocab_size=6, length=5, seed=11)

    def test_shapes(self, dataset):
        assert dataset.source.shape == (24, 5)
        assert dataset.target.shape == (24, 6)  # reversed + EOS

    def test_target_is_permuted_reversal(self, dataset):
        for src, tgt in zip(dataset.source, dataset.target):
            expected = dataset.permutation[src][::-1] + 3
            np.testing.assert_array_equal(tgt[:-1], expected)
            assert tgt[-1] == EOS

    def test_decoder_io_shifted(self, dataset):
        dec_in, dec_tgt = dataset.decoder_io(np.arange(4))
        assert dec_in.shape == dec_tgt.shape
        assert np.all(dec_in[:, 0] == BOS)
        np.testing.assert_array_equal(dec_in[:, 1:], dec_tgt[:, :-1])

    def test_references_strip_eos(self, dataset):
        refs = dataset.references(np.arange(3))
        for ref in refs:
            assert EOS not in ref
            assert len(ref) == 5

    def test_burstiness(self):
        """With burst_rate > 0 repeats are much more common than in the
        unbursty corpus."""
        bursty = TranslationDataset(num_pairs=64, burst_rate=0.5, seed=1)
        flat = TranslationDataset(num_pairs=64, burst_rate=0.0, seed=1)

        def repeat_fraction(ds):
            src = ds.source
            return float(np.mean(src[:, 1:] == src[:, :-1]))

        assert repeat_fraction(bursty) > repeat_fraction(flat) + 0.2

    def test_deterministic(self):
        a = TranslationDataset(num_pairs=8, seed=13)
        b = TranslationDataset(num_pairs=8, seed=13)
        np.testing.assert_array_equal(a.source, b.source)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            TranslationDataset(vocab_size=1)
        with pytest.raises(ValueError):
            TranslationDataset(length=0)
        with pytest.raises(ValueError):
            TranslationDataset(burst_rate=1.0)

    def test_target_vocab_size(self, dataset):
        assert dataset.target_vocab_size == 9
