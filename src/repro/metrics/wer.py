"""Word error rate via Levenshtein edit distance.

The paper reports speech results as *WER loss*: the absolute increase in
WER over the unmodified network (Table 1 lists 10.24 WER for DeepSpeech2
and 23.8 for EESEN); :func:`repro.models.benchmark.quality_loss` applies
that convention.
"""

from __future__ import annotations

from typing import Sequence

Token = object  # hashable token: str, int, ...


def edit_distance(reference: Sequence[Token], hypothesis: Sequence[Token]) -> int:
    """Levenshtein distance (substitutions, insertions, deletions).

    Runs in O(len(ref) * len(hyp)) with a two-row DP over Python lists:
    at the token counts WER scores, per-element numpy reads and writes
    cost more than the arithmetic they carry.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    previous = list(range(len(hyp) + 1))
    for i, ref_tok in enumerate(ref, start=1):
        current = [i]
        for j, hyp_tok in enumerate(hyp, start=1):
            current.append(
                min(
                    previous[j - 1] + (0 if ref_tok == hyp_tok else 1),
                    previous[j] + 1,
                    current[j - 1] + 1,
                )
            )
        previous = current
    return previous[-1]


def wer(
    references: Sequence[Sequence[Token]], hypotheses: Sequence[Sequence[Token]]
) -> float:
    """Corpus-level WER in percent: total edits / total reference tokens."""
    if len(references) != len(hypotheses):
        raise ValueError(
            f"got {len(references)} references but {len(hypotheses)} hypotheses"
        )
    if not references:
        raise ValueError("need at least one reference")
    total_edits = 0
    total_tokens = 0
    for ref, hyp in zip(references, hypotheses):
        total_edits += edit_distance(ref, hyp)
        total_tokens += len(ref)
    if total_tokens == 0:
        raise ValueError("references contain no tokens")
    return 100.0 * total_edits / total_tokens
