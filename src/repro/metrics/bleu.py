"""Corpus BLEU (Papineni et al. 2002) implemented from scratch.

Used for the MNMT benchmark (Table 1 lists 29.8 BLEU on WMT'15 En->De).
The implementation is the standard one: modified n-gram precision with
clipping, geometric mean over orders 1..4 and a brevity penalty; smoothing
adds one to numerator and denominator for orders > 1 (Lin & Och 2004) so
short synthetic corpora do not zero out.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence, Tuple

Token = object


def _ngrams(tokens: Sequence[Token], order: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1)
    )


def modified_precision(
    references: Sequence[Sequence[Token]],
    hypotheses: Sequence[Sequence[Token]],
    order: int,
) -> Tuple[int, int]:
    """Clipped n-gram matches and total hypothesis n-grams at ``order``."""
    matches = 0
    total = 0
    for ref, hyp in zip(references, hypotheses):
        hyp_counts = _ngrams(hyp, order)
        ref_counts = _ngrams(ref, order)
        total += sum(hyp_counts.values())
        matches += sum(
            min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
        )
    return matches, total


def corpus_bleu(
    references: Sequence[Sequence[Token]],
    hypotheses: Sequence[Sequence[Token]],
    max_order: int = 4,
    smooth: bool = True,
) -> float:
    """Corpus-level BLEU in percent (0-100)."""
    if len(references) != len(hypotheses):
        raise ValueError(
            f"got {len(references)} references but {len(hypotheses)} hypotheses"
        )
    if not references:
        raise ValueError("need at least one sentence pair")
    if max_order < 1:
        raise ValueError("max_order must be >= 1")

    log_precisions = []
    for order in range(1, max_order + 1):
        matches, total = modified_precision(references, hypotheses, order)
        if smooth and order > 1:
            matches += 1
            total += 1
        if total == 0 or matches == 0:
            return 0.0
        log_precisions.append(math.log(matches / total))

    ref_len = sum(len(r) for r in references)
    hyp_len = sum(len(h) for h in hypotheses)
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    geo_mean = math.exp(sum(log_precisions) / max_order)
    return 100.0 * brevity * geo_mean


def bleu(
    references: Sequence[Sequence[Token]], hypotheses: Sequence[Sequence[Token]]
) -> float:
    """Alias for :func:`corpus_bleu` with default settings."""
    return corpus_bleu(references, hypotheses)
