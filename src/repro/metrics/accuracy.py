"""Classification accuracy (IMDB sentiment benchmark)."""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def accuracy(predictions: Array, targets: Array) -> float:
    """Fraction of correct predictions, in percent.

    Accepts either hard class predictions (same shape as ``targets``) or
    per-class scores (``targets.shape + (C,)``), which are argmaxed.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if predictions.shape == targets.shape:
        hard = predictions
    elif predictions.shape[:-1] == targets.shape:
        hard = predictions.argmax(axis=-1)
    else:
        raise ValueError(
            f"predictions shape {predictions.shape} incompatible with "
            f"targets shape {targets.shape}"
        )
    if targets.size == 0:
        raise ValueError("need at least one target")
    return 100.0 * float(np.mean(hard == targets))
