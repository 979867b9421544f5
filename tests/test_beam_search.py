"""Tests for beam-search decoding in the translation model."""

import numpy as np
import pytest

from repro.datasets.translation import TranslationDataset
from repro.metrics.bleu import corpus_bleu
from repro.models.translation_model import TranslationModel
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer
from repro.datasets.base import batched_indices


@pytest.fixture(scope="module")
def trained():
    """A lightly trained model so decoding is non-degenerate."""
    dataset = TranslationDataset(num_pairs=80, vocab_size=5, length=4, seed=21)
    rng = np.random.default_rng(21)
    model = TranslationModel(
        dataset.vocab_size, dataset.target_vocab_size, 12, 24, rng=rng
    )
    train_idx, test_idx = dataset.split()

    def batches(epoch):
        r = np.random.default_rng(epoch)
        out = []
        for idx in batched_indices(len(train_idx), 16, r):
            rows = train_idx[idx]
            dec_in, dec_tgt = dataset.decoder_io(rows)
            out.append((dataset.source[rows], dec_in, dec_tgt))
        return out

    Trainer(model, Adam(model.parameters(), lr=8e-3, clip_norm=5.0)).fit(
        batches, 25
    )
    return model, dataset, test_idx


class TestBeamSearch:
    def test_output_count_and_lengths(self, trained):
        model, dataset, test_idx = trained
        hyps = model.translate_beam(dataset.source[test_idx[:4]], max_len=6)
        assert len(hyps) == 4
        assert all(len(h) <= 6 for h in hyps)

    def test_width_one_matches_greedy(self, trained):
        """Beam width 1 is greedy decoding by construction."""
        model, dataset, test_idx = trained
        src = dataset.source[test_idx[:6]]
        greedy = model.translate(src, max_len=6)
        beam1 = model.translate_beam(src, max_len=6, beam_width=1)
        assert greedy == beam1

    def test_wider_beam_not_worse_on_bleu(self, trained):
        model, dataset, test_idx = trained
        src = dataset.source[test_idx]
        refs = dataset.references(test_idx)
        greedy = corpus_bleu(refs, model.translate(src, max_len=6))
        beam = corpus_bleu(refs, model.translate_beam(src, max_len=6, beam_width=4))
        # Beam search optimises sequence log-prob, which on this noise-
        # free task should not hurt BLEU materially.
        assert beam >= greedy - 5.0

    def test_invalid_width(self, trained):
        model, dataset, test_idx = trained
        with pytest.raises(ValueError):
            model.translate_beam(dataset.source[:1], max_len=4, beam_width=0)

    def test_no_eos_token_in_output(self, trained):
        model, dataset, test_idx = trained
        from repro.datasets.translation import EOS

        for hyp in model.translate_beam(dataset.source[test_idx[:8]], max_len=6):
            assert EOS not in hyp
