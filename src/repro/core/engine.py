"""The memoization engine: configure a scheme, apply it to a whole model.

The entry points are :class:`MemoizationScheme` (which predictor, what
threshold, throttling on/off) and :func:`memoized` — a context manager
that walks any :class:`~repro.nn.module.Module` tree, swaps every
recurrent layer for its memoized wrapper, and restores the originals on
exit.  Model evaluation code does not change at all::

    stats = ReuseStats()
    with memoized(model, MemoizationScheme(theta=0.05), stats):
        metric = evaluate(model, test_set)
    print(stats.reuse_percent())

Wrapping builds first and swaps second: every layer's wrapper exists
before any layer is swapped, so a failed wrap raises with the model
untouched and there is nothing to roll back.  Nothing re-wraps a model
in place: ``repro serve`` retunes by building fresh memoized clones
(:func:`repro.serve.state.memoized_clone`).

A *stack* of schemes evaluates several thresholds in one pass: the batch
is ``len(schemes)`` blocks of ``rows`` rows, block ``k`` runs under
``schemes[k]``, and a :class:`~repro.core.stats.BlockReuseRecorder`
counts each block into its own stats.  No row reads another row (every
predictor's state is per row), so each block decides what it would
alone::

    blocks = [ReuseStats() for _ in schemes]
    recorder = BlockReuseRecorder(blocks, rows=len(test_set))
    with memoized(model, schemes, recorder, rows=len(test_set)):
        outputs = model(np.tile(test_set, (len(schemes), 1)))
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bnn import BinaryGate
from repro.core.layers import WRAPPABLE, wrap_layer
from repro.core.predictors import (
    BNNGatePredictor,
    GatePredictor,
    InputSimilarityGatePredictor,
    OracleGatePredictor,
    Threshold,
)
from repro.core.stats import ReuseRecorder
from repro.nn.module import Module

Array = np.ndarray

PREDICTOR_KINDS = ("bnn", "oracle", "input")


@dataclass(frozen=True)
class MemoizationScheme:
    """Configuration of the fuzzy-memoization scheme.

    Attributes:
        theta: the reuse threshold (the paper's key knob; §3.2.1).
        predictor: one of :data:`PREDICTOR_KINDS` — ``"bnn"`` (the
            contribution), ``"oracle"`` (upper bound), or ``"input"``
            (input-similarity strawman).  Unknown kinds are rejected
            with a :class:`ValueError` at construction time.
        throttle: accumulate relative differences across consecutive
            reuses (Eq. 13).  Only meaningful for the BNN predictor.
        layer_thetas: optional per-layer threshold overrides, keyed by
            the dotted layer name seen in :class:`ReuseStats` (an
            extension beyond the paper's single global threshold; see
            ``calibrate_per_layer``).
    """

    theta: float = 0.05
    predictor: str = "bnn"
    throttle: bool = True
    layer_thetas: Optional[Mapping[str, float]] = None

    def __post_init__(self):
        # math.isfinite rejects NaN too, which `< 0` would wave through
        # (every comparison against NaN is False) — a NaN threshold makes
        # each reuse test silently false, a live-retune footgun.
        if not math.isfinite(self.theta) or self.theta < 0:
            raise ValueError("theta must be a finite non-negative number")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(
                f"predictor must be one of {PREDICTOR_KINDS}, got "
                f"{self.predictor!r}"
            )
        if self.layer_thetas is not None and any(
            not math.isfinite(value) or value < 0
            for value in self.layer_thetas.values()
        ):
            raise ValueError(
                "layer thresholds must be finite non-negative numbers"
            )

    def with_theta(self, theta: float) -> "MemoizationScheme":
        """Copy of the scheme at a different global threshold."""
        return replace(self, theta=theta)

    def with_layer_thetas(
        self, layer_thetas: Mapping[str, float]
    ) -> "MemoizationScheme":
        """Copy of the scheme with per-layer threshold overrides."""
        return replace(self, layer_thetas=dict(layer_thetas))

    def theta_for(self, layer_name: str) -> float:
        """Effective threshold for a (dotted) layer name."""
        if self.layer_thetas is None:
            return self.theta
        return self.layer_thetas.get(layer_name, self.theta)

    def make_predictor(
        self, w_x: Array, w_h: Array, theta: Optional[Threshold] = None
    ) -> GatePredictor:
        """Build the predictor for a gate (or stacked gate phase).

        The engine passes the stacked weights of a whole phase; the
        predictor covers ``w_x.shape[0]`` neurons.  ``theta`` overrides
        the scheme's threshold, with a scalar or with one threshold per
        batch row (a stacked evaluation).

        Raises:
            ValueError: if ``predictor`` is not in :data:`PREDICTOR_KINDS`
                (defensive re-check; construction already validates).
        """
        theta = self.theta if theta is None else theta
        if self.predictor == "oracle":
            return OracleGatePredictor(theta)
        if self.predictor == "input":
            return InputSimilarityGatePredictor(theta, neurons=w_x.shape[0])
        if self.predictor == "bnn":
            gate = BinaryGate(w_x, w_h)
            return BNNGatePredictor(gate, theta, throttle=self.throttle)
        raise ValueError(
            f"predictor must be one of {PREDICTOR_KINDS}, got "
            f"{self.predictor!r}"
        )


@dataclass
class _Replacement:
    parent: Module
    attr: str
    original: object


def _iter_recurrent_children(
    module: Module, prefix: str = ""
) -> Iterator[Tuple[Module, str, object, str]]:
    """Yield ``(parent, attr, layer, dotted_name)`` for wrappable layers."""
    for attr, child in list(module._children.items()):
        dotted = f"{prefix}{attr}"
        if isinstance(child, WRAPPABLE):
            yield module, attr, child, dotted
        else:
            yield from _iter_recurrent_children(child, prefix=f"{dotted}.")


def iter_recurrent_layers(model: Module) -> Iterator[Tuple[object, str]]:
    """Yield ``(layer, dotted_name)`` for every wrappable layer in walk
    order — the public face of the engine's wrapping walk, for callers
    (like the serving tier, which reports the layer names a retune may
    override) that read a model's recurrent layers without wrapping
    them."""
    for _, _, layer, dotted in _iter_recurrent_children(model):
        yield layer, dotted


#: One scheme, or a stack of schemes evaluated as row blocks of one batch.
Schemes = Union[MemoizationScheme, Sequence[MemoizationScheme]]


def scheme_stack(
    scheme: Schemes, rows: Optional[int] = None
) -> List[MemoizationScheme]:
    """The schemes of a (possibly one-scheme) stack, validated.

    Every scheme of a stack shares the predictor kind and the throttle
    setting; only the thresholds may differ.  A stack of more than one
    scheme needs ``rows``, the number of batch rows per block.

    Raises:
        ValueError: on an empty stack, schemes that disagree on
            ``predictor`` or ``throttle``, or a missing or negative
            ``rows``.
    """
    schemes = [scheme] if isinstance(scheme, MemoizationScheme) else list(scheme)
    if not schemes:
        raise ValueError("a scheme stack needs at least one scheme")
    first = schemes[0]
    if any(
        (s.predictor, s.throttle) != (first.predictor, first.throttle)
        for s in schemes
    ):
        raise ValueError("stacked schemes must share predictor and throttle")
    if len(schemes) > 1 and (rows is None or rows < 0):
        raise ValueError("a stack of schemes needs rows >= 0 per block")
    return schemes


def layer_threshold(
    schemes: Sequence[MemoizationScheme], rows: Optional[int], layer_name: str
) -> Threshold:
    """The threshold one layer's predictors compare against.

    One scheme gives its scalar threshold for the layer.  A stack gives
    one threshold per batch row: ``rows`` copies of each scheme's
    threshold for the layer, in stack order.
    """
    thetas = [s.theta_for(layer_name) for s in schemes]
    if len(thetas) == 1:
        return thetas[0]
    return np.repeat(thetas, rows)


def apply_memoization(
    model: Module, scheme: Schemes, stats: ReuseRecorder, rows: Optional[int] = None
) -> List[_Replacement]:
    """Swap every recurrent layer in ``model`` for a memoized wrapper.

    Returns the replacement records needed by :func:`restore`.

    ``scheme`` is one scheme, or a stack of them (see
    :func:`scheme_stack`) evaluated as ``len(scheme)`` blocks of
    ``rows`` batch rows each.  ``stats`` is anything with
    :meth:`ReuseStats.record`'s signature; a stack records through a
    :class:`~repro.core.stats.BlockReuseRecorder`.

    Every layer's wrapper is built before any layer is swapped, so a
    failed build (a bad per-layer threshold, a predictor construction
    error) raises with the model untouched.

    Raises:
        ValueError: if the model contains no recurrent layers, or on an
            invalid stack.
    """
    schemes = scheme_stack(scheme, rows)
    swaps: List[Tuple[_Replacement, object]] = []
    for parent, attr, layer, dotted in _iter_recurrent_children(model):
        factory = partial(
            schemes[0].make_predictor,
            theta=layer_threshold(schemes, rows, dotted),
        )
        wrapper = wrap_layer(layer, factory, stats, name=dotted)
        swaps.append((_Replacement(parent, attr, layer), wrapper))
    if not swaps:
        raise ValueError("model contains no recurrent layers to memoize")
    for record, wrapper in swaps:
        # The wrapper is not a Module; remove the child registration so
        # parameter traversal still sees the original weights through the
        # record we keep, then restore re-registers the layer.
        del record.parent._children[record.attr]
        object.__setattr__(record.parent, record.attr, wrapper)
    return [record for record, _ in swaps]


def restore(replacements: List[_Replacement]) -> None:
    """Undo :func:`apply_memoization`.

    Re-registering a layer appends it to the parent's child registry, so
    a naive undo would leave ``_children`` (and with it walk order,
    ``named_parameters`` order, and any wrapper built from a later walk)
    permanently reordered after a wrap/restore round trip.  The
    attribute ``__dict__`` keeps its insertion order through the swap —
    wrapping overwrites keys in place — so it is the authority we rebuild
    each touched registry against.
    """
    for record in reversed(replacements):
        setattr(record.parent, record.attr, record.original)
    for parent in {id(r.parent): r.parent for r in replacements}.values():
        ordered = {
            name: parent._children[name]
            for name in vars(parent)
            if name in parent._children
        }
        parent._children.clear()
        parent._children.update(ordered)


@contextmanager
def memoized(
    model: Module, scheme: Schemes, stats: ReuseRecorder, rows: Optional[int] = None
):
    """Context manager: run ``model`` under fuzzy memoization.

    Within the block every recurrent layer routes its gate dot products
    through the scheme's predictor and records decisions into ``stats``.
    A stack of schemes (with ``rows`` per block) is applied as
    :func:`apply_memoization` describes.
    """
    replacements = apply_memoization(model, scheme, stats, rows)
    try:
        yield stats
    finally:
        restore(replacements)
