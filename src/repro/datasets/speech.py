"""Synthetic speech-like frame sequences (DeepSpeech2 / EESEN stand-in).

Real audio frames change slowly — the property Figure 5 measures and the
memoization scheme exploits.  The generator emulates this with a phoneme
model: every utterance is a sequence of phonemes, each held for several
frames; features follow the phoneme's prototype vector with a smooth
attack transition from the previous phoneme and low-amplitude AR(1)
noise.  Labels are per-frame phoneme ids; transcripts are the collapsed
phoneme strings, scored with WER after collapse decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

Array = np.ndarray


def collapse(frame_labels: Sequence[int]) -> Tuple[int, ...]:
    """CTC-style collapse: merge consecutive duplicate frame labels."""
    out: List[int] = []
    for label in frame_labels:
        if not out or out[-1] != label:
            out.append(int(label))
    return tuple(out)


@dataclass
class SpeechDataset:
    """Deterministic synthetic speech corpus.

    Attributes:
        num_utterances: corpus size.
        num_phonemes: label alphabet size.
        feature_dim: per-frame feature width (e.g. filterbank energies).
        phones_per_utterance: transcript length.
        frames_per_phone: hold duration of each phoneme.
        attack_frames: frames spent interpolating from the previous
            phoneme (must be < frames_per_phone); larger values make
            consecutive frames more similar, increasing reuse headroom.
        noise: AR(1) noise amplitude on top of the prototype trajectory.
        seed: generator seed.
    """

    num_utterances: int = 64
    num_phonemes: int = 8
    feature_dim: int = 12
    phones_per_utterance: int = 6
    frames_per_phone: int = 8
    attack_frames: int = 3
    noise: float = 0.05
    seed: int = 0

    features: Array = field(init=False, repr=False)
    frame_labels: Array = field(init=False, repr=False)
    transcripts: List[Tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        if self.num_phonemes < 2:
            raise ValueError("need at least two phonemes")
        if not 0 <= self.attack_frames < self.frames_per_phone:
            raise ValueError("attack_frames must be < frames_per_phone")
        rng = np.random.default_rng(self.seed)
        prototypes = rng.standard_normal((self.num_phonemes, self.feature_dim))
        steps = self.phones_per_utterance * self.frames_per_phone

        features = np.empty((self.num_utterances, steps, self.feature_dim))
        labels = np.empty((self.num_utterances, steps), dtype=np.int64)
        transcripts: List[Tuple[int, ...]] = []

        for u in range(self.num_utterances):
            phones = self._sample_transcript(rng)
            transcripts.append(tuple(phones))
            frame = 0
            prev_proto = prototypes[phones[0]]
            ar_state = np.zeros(self.feature_dim)
            for phone in phones:
                proto = prototypes[phone]
                for k in range(self.frames_per_phone):
                    if k < self.attack_frames:
                        alpha = (k + 1) / (self.attack_frames + 1)
                        target = (1.0 - alpha) * prev_proto + alpha * proto
                    else:
                        target = proto
                    ar_state = 0.8 * ar_state + self.noise * rng.standard_normal(
                        self.feature_dim
                    )
                    features[u, frame] = target + ar_state
                    labels[u, frame] = phone
                    frame += 1
                prev_proto = proto
        self.features = features
        self.frame_labels = labels
        self.transcripts = transcripts

    def _sample_transcript(self, rng: np.random.Generator) -> List[int]:
        """Phoneme string without immediate repeats (collapse-decodable)."""
        phones = [int(rng.integers(self.num_phonemes))]
        while len(phones) < self.phones_per_utterance:
            candidate = int(rng.integers(self.num_phonemes))
            if candidate != phones[-1]:
                phones.append(candidate)
        return phones

    # -- views ----------------------------------------------------------------

    @property
    def num_frames(self) -> int:
        return self.phones_per_utterance * self.frames_per_phone

    def split(self, test_fraction: float = 0.25) -> Tuple[Array, Array]:
        """Deterministic (train_idx, test_idx) index arrays."""
        rng = np.random.default_rng(self.seed + 1)
        order = rng.permutation(self.num_utterances)
        n_test = max(1, int(round(self.num_utterances * test_fraction)))
        return np.sort(order[n_test:]), np.sort(order[:n_test])

    def references(self, indices: Array) -> List[Tuple[int, ...]]:
        return [self.transcripts[i] for i in np.asarray(indices)]
