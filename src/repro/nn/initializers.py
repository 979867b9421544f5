"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so model
construction is fully deterministic given a seed — a requirement for the
reproduction benches, which compare reuse statistics across runs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Array = np.ndarray
Shape = Sequence[int]


def zeros(shape: Shape, rng: np.random.Generator | None = None) -> Array:
    """All-zeros tensor (biases)."""
    del rng  # deterministic regardless of the generator
    return np.zeros(shape, dtype=np.float64)


def uniform(
    shape: Shape,
    rng: np.random.Generator,
    low: float = -0.1,
    high: float = 0.1,
) -> Array:
    """Uniform initialization in ``[low, high)``."""
    return rng.uniform(low, high, size=shape)


def xavier_uniform(shape: Shape, rng: np.random.Generator) -> Array:
    """Glorot/Xavier uniform initialization.

    Fan-in/fan-out are taken from the last two dimensions, matching the
    ``(out, in)`` weight-matrix convention used throughout ``repro.nn``.
    """
    if len(shape) < 2:
        fan_in = fan_out = int(shape[0])
    else:
        fan_out, fan_in = int(shape[-2]), int(shape[-1])
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(shape: Shape, rng: np.random.Generator, gain: float = 1.0) -> Array:
    """Orthogonal initialization (recommended for recurrent matrices).

    For non-square matrices the result has orthonormal rows or columns,
    whichever set is smaller.
    """
    if len(shape) != 2:
        raise ValueError(f"orthogonal init requires a 2-D shape, got {tuple(shape)}")
    rows, cols = int(shape[0]), int(shape[1])
    q, r = np.linalg.qr(rng.standard_normal((max(rows, cols), min(rows, cols))))
    # Sign correction so the distribution is uniform over orthogonal matrices.
    q *= np.sign(np.diag(r))
    del r
    q *= gain
    return q.T if rows < cols else q
