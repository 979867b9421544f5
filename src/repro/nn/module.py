"""Base class for parameterised layers.

``Module`` keeps an ordered registry of named :class:`Parameter` objects
(a value, plus a gradient accumulator allocated on first use) and of
child modules, giving the optimizer and the serializer a uniform view of
any model tree.  There is no autograd: each concrete layer implements
its own ``forward``/``backward`` pair and accumulates into
``Parameter.grad``.

A model that only runs inference never touches ``Parameter.grad``, so it
holds one copy of its weights: the gradient buffer is zero-filled when a
backward first accumulates into it (or anything first reads it), and
``zero_grad`` and ``load_state_dict`` never allocate one.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

import numpy as np

Array = np.ndarray


class Parameter:
    """A trainable tensor with a lazily allocated gradient accumulator."""

    __slots__ = ("value", "_grad")

    def __init__(self, value: Array):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: Optional[Array] = None

    @property
    def grad(self) -> Array:
        """The gradient accumulator, zero-filled on first use."""
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, value: Array) -> None:
        self._grad = value

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        """Zero the accumulator; one never allocated stays unallocated."""
        if self._grad is not None:
            self._grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.value.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; assignment registers them automatically, preserving
    definition order (which fixes the parameter ordering seen by
    optimizers and state serialization).
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    # -- traversal ---------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` over the whole subtree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def children(self) -> Iterator["Module"]:
        yield from self._children.values()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar weights in the subtree."""
        return sum(p.value.size for p in self.parameters())

    # -- state (de)serialization -------------------------------------------

    def state_dict(self) -> Dict[str, Array]:
        """Copy of every parameter value, keyed by dotted name."""
        return {name: param.value.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, Array]) -> None:
        """Load values saved by :meth:`state_dict`.

        Each parameter gets its own float64 copy of the loaded value and
        drops its gradient buffer, which the next backward allocates
        zeroed.

        Raises:
            KeyError: if ``state`` is missing a parameter.
            ValueError: if a shape does not match.
        """
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        if missing:
            raise KeyError(f"state dict missing parameters: {missing}")
        for name, param in own.items():
            value = np.array(state[name], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {param.value.shape}, got {value.shape}"
                )
            param.value = value
            param._grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(params={self.num_parameters()})"


def clone_with_shared_parameters(
    module: Module, _memo: Optional[Dict[int, Module]] = None
) -> Module:
    """Structural copy of a module tree that *shares* every Parameter.

    The clone is a new object graph — fresh instances for ``module`` and
    each descendant module, with their own attribute dicts and registry
    order — but every :class:`Parameter` is the *same object* as in the
    source, so the clone computes with (and trains into) the original
    weights.  Non-module attributes (sizes, activation objects, cached
    activations) are shared by reference; code that reassigns them, like
    the layers' backward caches, writes only to its own instance.

    This is the replica primitive behind concurrent serving: N clones of
    one trained model can each carry private mutable evaluation state
    (memo wrappers, predictor sequences) while all answering from one
    set of weights — a forward through a clone is bitwise identical to a
    forward through the source.

    Aliased submodules (one instance reachable through two attributes)
    stay aliased in the clone.
    """
    memo = _memo if _memo is not None else {}
    existing = memo.get(id(module))
    if existing is not None:
        return existing
    clone = object.__new__(type(module))
    object.__setattr__(clone, "_parameters", {})
    object.__setattr__(clone, "_children", {})
    memo[id(module)] = clone
    for name, value in vars(module).items():
        if name in ("_parameters", "_children"):
            continue
        if isinstance(value, Module):
            value = clone_with_shared_parameters(value, memo)
        setattr(clone, name, value)
    return clone
