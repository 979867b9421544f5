"""Tests for WER, BLEU, accuracy and Pearson correlation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    accuracy,
    accuracy_loss,
    bleu,
    bleu_loss,
    corpus_bleu,
    edit_distance,
    pearson,
    wer,
    wer_loss,
)

from helpers import reference_edit_distance

tokens = st.lists(st.integers(0, 5), min_size=0, max_size=12)


class TestEditDistance:
    def test_identical(self):
        assert edit_distance([1, 2, 3], [1, 2, 3]) == 0

    def test_empty_cases(self):
        assert edit_distance([], [1, 2]) == 2
        assert edit_distance([1, 2], []) == 2
        assert edit_distance([], []) == 0

    def test_substitution(self):
        assert edit_distance([1, 2, 3], [1, 9, 3]) == 1

    def test_insertion_deletion(self):
        assert edit_distance([1, 2, 3], [1, 2]) == 1
        assert edit_distance([1, 2], [1, 5, 2]) == 1

    def test_classic_example(self):
        assert edit_distance("kitten", "sitting") == 3

    @given(tokens, tokens)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(tokens, tokens, tokens)
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(tokens, tokens)
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, a, b):
        d = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(
        st.lists(st.integers(0, 24), max_size=24),
        st.lists(st.integers(0, 24), max_size=24),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_reference(self, a, b):
        """The Python-list DP gives the numpy DP's integers, empty lists
        included."""
        d = edit_distance(a, b)
        assert d == reference_edit_distance(a, b)
        assert type(d) is int


class TestWER:
    def test_perfect_is_zero(self):
        assert wer([[1, 2, 3]], [[1, 2, 3]]) == 0.0

    def test_corpus_pooling(self):
        # 1 edit over 4 reference tokens = 25%.
        assert wer([[1, 2], [3, 4]], [[1, 2], [3, 9]]) == pytest.approx(25.0)

    def test_can_exceed_100(self):
        assert wer([[1]], [[2, 3, 4]]) == pytest.approx(300.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            wer([[1]], [[1], [2]])

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            wer([], [])

    def test_no_reference_tokens_raises(self):
        with pytest.raises(ValueError):
            wer([[]], [[1]])

    def test_wer_loss_convention(self):
        assert wer_loss(10.0, 12.5) == pytest.approx(2.5)
        assert wer_loss(10.0, 9.0) == 0.0  # improvements clamp to zero


class TestBLEU:
    def test_perfect_is_100(self):
        refs = [[1, 2, 3, 4, 5]]
        assert corpus_bleu(refs, refs, smooth=False) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert corpus_bleu([[1, 2, 3, 4]], [[5, 6, 7, 8]]) == 0.0

    def test_brevity_penalty(self):
        """A too-short but precise hypothesis scores below 100."""
        refs = [[1, 2, 3, 4, 5, 6, 7, 8]]
        hyps = [[1, 2, 3, 4]]
        score = corpus_bleu(refs, hyps)
        assert 0.0 < score < 100.0

    def test_order_matters(self):
        refs = [[1, 2, 3, 4]]
        shuffled = [[4, 3, 2, 1]]
        assert corpus_bleu(refs, shuffled) < corpus_bleu(refs, refs)

    def test_clipping(self):
        """Repeating a correct unigram must not inflate precision."""
        refs = [[1, 2, 3, 4]]
        spam = [[1, 1, 1, 1]]
        assert corpus_bleu(refs, spam) < 50.0

    def test_corpus_vs_sentence_pooling(self):
        refs = [[1, 2, 3, 4], [5, 6, 7, 8]]
        hyps = [[1, 2, 3, 4], [5, 6, 0, 8]]
        score = corpus_bleu(refs, hyps)
        assert 0.0 < score < 100.0

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [])

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            corpus_bleu([], [])

    def test_invalid_order_raises(self):
        with pytest.raises(ValueError):
            corpus_bleu([[1]], [[1]], max_order=0)

    def test_empty_hypothesis_is_zero(self):
        assert corpus_bleu([[1, 2, 3]], [[]]) == 0.0

    def test_alias(self):
        refs = [[1, 2, 3, 4, 5]]
        assert bleu(refs, refs) == corpus_bleu(refs, refs)

    def test_bleu_loss_convention(self):
        assert bleu_loss(29.8, 28.3) == pytest.approx(1.5)
        assert bleu_loss(29.8, 30.5) == 0.0


class TestAccuracy:
    def test_hard_predictions(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(
            100.0 * 2 / 3
        )

    def test_logit_predictions(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert accuracy(logits, np.array([1, 0])) == 100.0

    def test_incompatible_shapes_raise(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((3, 2, 2)), np.zeros(2))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_loss_convention(self):
        assert accuracy_loss(86.5, 85.0) == pytest.approx(1.5)
        assert accuracy_loss(86.5, 90.0) == 0.0


class TestPearson:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 3) == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_constant_returns_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            pearson(np.ones(1), np.ones(1))

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=20),
        st.lists(st.floats(-100, 100), min_size=3, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        r = pearson(np.array(a[:n]), np.array(b[:n]))
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
