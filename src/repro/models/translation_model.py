"""Encoder-decoder LSTM for the MNMT stand-in, scored with BLEU.

The decoder is conditioned on the encoder's final hidden state, which is
concatenated to every decoder input embedding (a fixed-context seq2seq,
Sutskever-style).  Greedy decoding drives the decoder through the layer
stepping interface, so it runs unchanged under the memoization engine.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.datasets.translation import BOS, EOS, NUM_SPECIALS
from repro.metrics.bleu import corpus_bleu
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.nn.losses import SequenceCrossEntropy
from repro.nn.lstm import LSTMLayer
from repro.nn.module import Module

Array = np.ndarray


class TranslationModel(Module):
    """Fixed-context sequence-to-sequence LSTM."""

    def __init__(
        self,
        src_vocab: int,
        tgt_vocab: int,
        embed_dim: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.src_embedding = Embedding(src_vocab, embed_dim, rng=rng)
        self.tgt_embedding = Embedding(tgt_vocab, embed_dim, rng=rng)
        self.encoder = LSTMLayer(embed_dim, hidden_size, rng=rng)
        self.decoder = LSTMLayer(embed_dim + hidden_size, hidden_size, rng=rng)
        self.output = Linear(hidden_size, tgt_vocab, rng=rng)
        self.hidden_size = hidden_size
        self.tgt_vocab = tgt_vocab
        self._loss = SequenceCrossEntropy()

    # -- encoding ---------------------------------------------------------------

    def encode(self, src_ids: Array) -> Array:
        """Context vector ``(B, H)``: the encoder's final hidden state."""
        embedded = self.src_embedding(np.asarray(src_ids))
        return self.encoder(embedded)[:, -1, :]

    def _decoder_inputs(self, dec_in_ids: Array, context: Array) -> Array:
        """Concatenate target embeddings with the broadcast context."""
        embedded = self.tgt_embedding(np.asarray(dec_in_ids))
        steps = embedded.shape[1]
        tiled = np.repeat(context[:, None, :], steps, axis=1)
        return np.concatenate([embedded, tiled], axis=-1)

    # -- training ---------------------------------------------------------------

    def forward(self, src_ids: Array, dec_in_ids: Array) -> Array:
        """Teacher-forced logits ``(B, L, tgt_vocab)``."""
        context = self.encode(src_ids)
        dec_x = self._decoder_inputs(dec_in_ids, context)
        return self.output(self.decoder(dec_x))

    __call__ = forward

    def compute_loss(self, batch: Tuple[Array, Array, Array]) -> float:
        src_ids, dec_in_ids, dec_tgt_ids = batch
        embedded_src = self.src_embedding(np.asarray(src_ids))
        enc_out = self.encoder(embedded_src, cache=True)
        context = enc_out[:, -1, :]
        embedded_tgt = self.tgt_embedding(np.asarray(dec_in_ids))
        steps = embedded_tgt.shape[1]
        dec_x = np.concatenate(
            [embedded_tgt, np.repeat(context[:, None, :], steps, axis=1)], axis=-1
        )
        logits = self.output(self.decoder(dec_x, cache=True))
        loss = self._loss(logits, np.asarray(dec_tgt_ids))

        d_logits = self._loss.backward()
        d_dec_h = self.output.backward(d_logits)
        d_dec_x = self.decoder.backward(d_dec_h)
        embed_dim = embedded_tgt.shape[-1]
        self.tgt_embedding.backward(d_dec_x[:, :, :embed_dim])
        d_context = d_dec_x[:, :, embed_dim:].sum(axis=1)
        d_enc_out = np.zeros_like(enc_out)
        d_enc_out[:, -1, :] = d_context
        d_embedded_src = self.encoder.backward(d_enc_out)
        self.src_embedding.backward(d_embedded_src)
        return loss

    # -- decoding ---------------------------------------------------------------

    def translate(
        self, src_ids: Array, max_len: int, early_stop: bool = True
    ) -> List[Tuple[int, ...]]:
        """Greedy decode; stops each hypothesis at EOS or ``max_len``.

        Args:
            src_ids: source token batch ``(B, S)``.
            max_len: decode-step budget per hypothesis.
            early_stop: abandon the loop once *every* row has emitted
                EOS.  The hypotheses are identical either way (finished
                rows never append tokens), but the step count then
                depends on the whole batch, which couples per-row
                memoization statistics across rows.  Sharded evaluation
                (:meth:`repro.models.benchmark.Benchmark.evaluate_memoized`)
                passes ``False`` so every row always sees exactly
                ``max_len`` decoder steps regardless of which other rows
                share its batch — the property that makes per-batch
                shard merges bitwise-identical to the whole-split run.
        """
        src_ids = np.asarray(src_ids)
        batch = src_ids.shape[0]
        context = self.encode(src_ids)
        state = self.decoder.start_state(batch)
        tokens = np.full(batch, BOS, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        hypotheses: List[List[int]] = [[] for _ in range(batch)]
        for _ in range(max_len):
            embedded = self.tgt_embedding(tokens)
            step_in = np.concatenate([embedded, context], axis=-1)
            h, state = self.decoder.step(step_in, state)
            logits = self.output(h)
            tokens = logits.argmax(axis=-1).astype(np.int64)
            for b in range(batch):
                if not finished[b]:
                    if tokens[b] == EOS:
                        finished[b] = True
                    else:
                        hypotheses[b].append(int(tokens[b]))
            if early_stop and finished.all():
                break
        return [tuple(h) for h in hypotheses]

    def translate_beam(
        self, src_ids: Array, max_len: int, beam_width: int = 4
    ) -> List[Tuple[int, ...]]:
        """Beam-search decode (the paper's MNMT uses beam search).

        Standard length-normalised log-probability beam search over the
        decoder, decoding one source sentence at a time.

        Note: beam search branches the decoder state, while the
        memoization engine keeps one linear per-neuron memo stream; under
        ``memoized(...)`` the beams would share that stream, which is not
        the hardware's per-sequence buffer semantics.  Memoized quality
        numbers therefore use greedy decoding (``evaluate`` default); the
        paper's beam search is modelled in the accelerator's effective
        sequence length instead (see ``repro.models.specs``).
        """
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        src_ids = np.asarray(src_ids)
        results: List[Tuple[int, ...]] = []
        for row in src_ids:
            results.append(self._beam_one(row[None, :], max_len, beam_width))
        return results

    def _beam_one(self, src: Array, max_len: int, width: int) -> Tuple[int, ...]:
        context = self.encode(src)  # (1, H)
        state = self.decoder.start_state(1)
        # Each beam: (neg mean logprob is applied at the end; store sum)
        beams = [((), 0.0, state, BOS, False)]  # tokens, logp, state, last, done
        for _ in range(max_len):
            if all(b[4] for b in beams):
                break
            candidates = []
            for tokens, logp, state, last, done in beams:
                if done:
                    candidates.append((tokens, logp, state, last, True))
                    continue
                embedded = self.tgt_embedding(np.array([last], dtype=np.int64))
                step_in = np.concatenate([embedded, context], axis=-1)
                h, new_state = self.decoder.step(step_in, state)
                logits = self.output(h)[0]
                shifted = logits - logits.max()
                log_probs = shifted - np.log(np.exp(shifted).sum())
                top = np.argsort(log_probs)[::-1][:width]
                for token in top:
                    token = int(token)
                    if token == EOS:
                        candidates.append(
                            (tokens, logp + log_probs[token], new_state, token, True)
                        )
                    else:
                        candidates.append(
                            (
                                tokens + (token,),
                                logp + log_probs[token],
                                new_state,
                                token,
                                False,
                            )
                        )
            # Length-normalised pruning.
            candidates.sort(
                key=lambda b: b[1] / max(len(b[0]), 1), reverse=True
            )
            beams = candidates[:width]
        best = max(beams, key=lambda b: b[1] / max(len(b[0]), 1))
        return best[0]

    def evaluate(
        self,
        src_ids: Array,
        references: Sequence[Sequence[int]],
        max_len: int | None = None,
        beam_width: int | None = None,
    ) -> float:
        """Corpus BLEU in percent (higher is better).

        Greedy decoding by default; pass ``beam_width`` for beam search.
        """
        if max_len is None:
            max_len = src_ids.shape[1] + NUM_SPECIALS
        if beam_width is None:
            hypotheses = self.translate(src_ids, max_len=max_len)
        else:
            hypotheses = self.translate_beam(
                src_ids, max_len=max_len, beam_width=beam_width
            )
        return corpus_bleu(list(references), hypotheses)

    # -- analysis hooks -----------------------------------------------------------

    def collect_hidden(self, src_ids: Array, dec_in_ids: Array) -> List[Array]:
        context = self.encode(src_ids)
        embedded_src = self.src_embedding(np.asarray(src_ids))
        enc_hidden = self.encoder(embedded_src)
        dec_hidden = self.decoder(self._decoder_inputs(dec_in_ids, context))
        return [enc_hidden, dec_hidden]

    def layer_io(
        self, src_ids: Array, dec_in_ids: Array
    ) -> List[Tuple[LSTMLayer, Array]]:
        embedded_src = self.src_embedding(np.asarray(src_ids))
        context = self.encode(src_ids)
        dec_x = self._decoder_inputs(dec_in_ids, context)
        return [(self.encoder, embedded_src), (self.decoder, dec_x)]
