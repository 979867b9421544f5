"""IMDB-style sentiment classifier: Embedding -> LSTM -> Linear (Table 1)."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.metrics.accuracy import accuracy
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.lstm import LSTMLayer
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.module import Module

Array = np.ndarray


class SentimentModel(Module):
    """Single-layer LSTM classifier over token sequences.

    Mirrors the paper's IMDB network shape: one unidirectional LSTM whose
    final hidden state feeds a 2-way softmax classifier.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
        num_classes: int = 2,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.embedding = Embedding(vocab_size, embed_dim, rng=rng)
        self.lstm = LSTMLayer(embed_dim, hidden_size, rng=rng)
        self.classifier = Linear(hidden_size, num_classes, rng=rng)
        self.hidden_size = hidden_size
        self._loss = SoftmaxCrossEntropy()

    # -- inference -------------------------------------------------------------

    def forward(self, token_ids: Array) -> Array:
        """Class logits of shape ``(B, num_classes)``."""
        embedded = self.embedding(np.asarray(token_ids))
        hidden = self.lstm(embedded)
        return self.classifier(hidden[:, -1, :])

    __call__ = forward

    def predict(self, token_ids: Array) -> Array:
        return self.forward(token_ids).argmax(axis=-1)

    def evaluate(self, token_ids: Array, labels: Array) -> float:
        """Test accuracy in percent."""
        return accuracy(self.predict(token_ids), labels)

    # -- training ----------------------------------------------------------------

    def compute_loss(self, batch: Tuple[Array, Array]) -> float:
        token_ids, labels = batch
        embedded = self.embedding(np.asarray(token_ids))
        hidden = self.lstm(embedded, cache=True)
        logits = self.classifier(hidden[:, -1, :])
        loss = self._loss(logits, np.asarray(labels))
        d_logits = self._loss.backward()
        d_last_h = self.classifier.backward(d_logits)
        d_hidden = np.zeros_like(hidden)
        d_hidden[:, -1, :] = d_last_h
        d_embedded = self.lstm.backward(d_hidden)
        self.embedding.backward(d_embedded)
        return loss

    # -- analysis hooks ------------------------------------------------------------

    def collect_hidden(self, token_ids: Array) -> List[Array]:
        """Hidden-state sequences per recurrent layer (for Figure 5)."""
        embedded = self.embedding(np.asarray(token_ids))
        return [self.lstm(embedded)]

    def layer_io(self, token_ids: Array) -> List[Tuple[LSTMLayer, Array]]:
        """(layer, layer input) pairs (for Figures 7-8 correlation)."""
        embedded = self.embedding(np.asarray(token_ids))
        return [(self.lstm, embedded)]
