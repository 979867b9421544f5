"""Activation functions with forward and derivative evaluation.

Each activation is exposed as an :class:`Activation` instance carrying a
name, the forward map and the derivative expressed *in terms of the
forward output* (the convention used by the hand-written BPTT code in the
recurrent layers: ``dx = dy * act.grad_from_output(y)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Array = np.ndarray


def _sigmoid_forward(x: Array) -> Array:
    # Numerically stable evaluation: exp() is only taken of non-positive
    # arguments so it can never overflow.  No boolean indexing: the
    # numerator (1 for x >= 0, exp(-|x|) otherwise) is selected per
    # element, then one add and one divide run for every element.  Each
    # element sees the same IEEE operations as ``1 / (1 + e)`` or
    # ``e / (1 + e)``, so the result is bitwise identical to evaluating
    # both fractions and selecting.
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def _softmax_forward(x: Array) -> Array:
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class Activation:
    """A differentiable scalar activation.

    Attributes:
        name: Stable identifier (used in serialized configs).
        forward: Elementwise forward map.
        grad_from_output: Derivative computed from the *output* of the
            forward map, i.e. ``f'(x)`` expressed as ``g(f(x))``.
    """

    name: str
    forward: Callable[[Array], Array] = field(repr=False)
    grad_from_output: Callable[[Array], Array] = field(repr=False)

    def __call__(self, x: Array) -> Array:
        return self.forward(x)


sigmoid = Activation(
    name="sigmoid",
    forward=_sigmoid_forward,
    grad_from_output=lambda y: y * (1.0 - y),
)

tanh = Activation(
    name="tanh",
    forward=np.tanh,
    grad_from_output=lambda y: 1.0 - y * y,
)

relu = Activation(
    name="relu",
    forward=lambda x: np.maximum(x, 0.0),
    grad_from_output=lambda y: (y > 0.0).astype(np.float64),
)

identity = Activation(
    name="identity",
    forward=lambda x: np.asarray(x, dtype=np.float64),
    grad_from_output=lambda y: np.ones_like(y),
)

softmax = Activation(
    name="softmax",
    forward=_softmax_forward,
    # Note: the true softmax Jacobian is not elementwise; this shortcut is
    # only valid when fused with cross-entropy (see repro.nn.losses).  It
    # is provided so softmax can still be used as a plain forward map.
    grad_from_output=lambda y: y * (1.0 - y),
)

_REGISTRY = {a.name: a for a in (sigmoid, tanh, relu, identity, softmax)}


def get_activation(name: str) -> Activation:
    """Look up an activation by name.

    Raises:
        KeyError: if ``name`` is not a registered activation.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown activation {name!r}; known: {known}") from None
