"""Framewise speech models: DeepSpeech2 (GRU) and EESEN (BiLSTM) stand-ins.

Both are deep recurrent stacks over feature frames with a per-frame
phoneme classifier; transcripts come from collapse decoding and quality
is WER — matching how the paper's two speech networks are scored.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.datasets.speech import collapse
from repro.nn.gru import GRULayer
from repro.nn.linear import Linear
from repro.nn.losses import SequenceCrossEntropy
from repro.nn.lstm import LSTMLayer
from repro.nn.module import Module
from repro.nn.rnn import Bidirectional, RNNStack

Array = np.ndarray


class SpeechModel(Module):
    """Deep RNN stack + framewise classifier, scored with WER."""

    def __init__(self, stack: RNNStack, num_phonemes: int, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.stack = stack
        self.classifier = Linear(stack.output_size, num_phonemes, rng=rng)
        self.num_phonemes = num_phonemes
        self._loss = SequenceCrossEntropy()

    @classmethod
    def deepspeech(
        cls,
        feature_dim: int,
        hidden_size: int,
        num_layers: int,
        num_phonemes: int,
        rng: np.random.Generator | None = None,
    ) -> "SpeechModel":
        """DeepSpeech2 stand-in: unidirectional GRU stack (Table 1)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: List[GRULayer] = []
        in_size = feature_dim
        for _ in range(num_layers):
            layers.append(GRULayer(in_size, hidden_size, rng=rng))
            in_size = hidden_size
        return cls(RNNStack(layers), num_phonemes, rng=rng)

    @classmethod
    def eesen(
        cls,
        feature_dim: int,
        hidden_size: int,
        num_bi_layers: int,
        num_phonemes: int,
        rng: np.random.Generator | None = None,
    ) -> "SpeechModel":
        """EESEN stand-in: bidirectional LSTM stack (Table 1)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: List[Bidirectional] = []
        in_size = feature_dim
        for _ in range(num_bi_layers):
            layers.append(Bidirectional.lstm(in_size, hidden_size, rng=rng))
            in_size = 2 * hidden_size
        return cls(RNNStack(layers), num_phonemes, rng=rng)

    # -- inference -------------------------------------------------------------

    def forward(self, frames: Array) -> Array:
        """Per-frame phoneme logits ``(B, T, P)``."""
        return self.classifier(self.stack(np.asarray(frames, dtype=np.float64)))

    __call__ = forward

    def transcribe(self, frames: Array) -> List[Tuple[int, ...]]:
        """Collapse-decoded transcripts for a batch of utterances."""
        frame_predictions = self.forward(frames).argmax(axis=-1)
        return [collapse(row) for row in frame_predictions]

    def stream(
        self, frames: Array, states: Optional[List[object]] = None
    ) -> Tuple[Array, List[object]]:
        """Per-frame labels ``(B, T)`` for the next chunk of a stream, and
        the stack's state after it.

        ``states`` is what the previous chunk returned, or ``None`` to
        start a stream.  Every layer steps through the chunk from its
        state, so the labels of consecutive chunks join into the labels
        ``forward(...).argmax(-1)`` gives the whole utterance, and a
        memoized stack carries its memo state from chunk to chunk.  Only a
        unidirectional stack streams: a backward direction would need the
        utterance's end first.
        """
        hidden = np.asarray(frames, dtype=np.float64)
        batch, steps, _ = hidden.shape
        layers = self.stack.layers
        if states is None:
            states = [layer.start_state(batch) for layer in layers]
        next_states = []
        for layer, state in zip(layers, states):
            out = np.empty((batch, steps, layer.hidden_size))
            for t in range(steps):
                out[:, t, :], state = layer.step(hidden[:, t, :], state)
            next_states.append(state)
            hidden = out
        return self.classifier(hidden).argmax(axis=-1), next_states

    # -- training ----------------------------------------------------------------

    def compute_loss(self, batch: Tuple[Array, Array]) -> float:
        frames, frame_labels = batch
        hidden = self.stack(np.asarray(frames, dtype=np.float64), cache=True)
        logits = self.classifier(hidden)
        loss = self._loss(logits, np.asarray(frame_labels))
        d_logits = self._loss.backward()
        d_hidden = self.classifier.backward(d_logits)
        self.stack.backward(d_hidden)
        return loss

    # -- analysis hooks ------------------------------------------------------------

    def collect_hidden(self, frames: Array) -> List[Array]:
        """Per-direction hidden sequences for every recurrent layer."""
        out = np.asarray(frames, dtype=np.float64)
        collected: List[Array] = []
        for layer in self.stack.layers:
            out_next = layer(out)
            if isinstance(layer, Bidirectional):
                hidden = layer.hidden_size
                collected.append(out_next[:, :, :hidden])
                collected.append(out_next[:, :, hidden:])
            else:
                collected.append(out_next)
            out = out_next
        return collected

    def layer_io(
        self, frames: Array
    ) -> List[Tuple[Union[LSTMLayer, GRULayer], Array]]:
        """(cell layer, its input sequence) pairs for correlation analysis."""
        out = np.asarray(frames, dtype=np.float64)
        pairs: List[Tuple[Union[LSTMLayer, GRULayer], Array]] = []
        for layer in self.stack.layers:
            if isinstance(layer, Bidirectional):
                pairs.append((layer.fwd, out))
                pairs.append((layer.bwd, out[:, ::-1, :]))
            else:
                pairs.append((layer, out))
            out = layer(out)
        return pairs
