"""Threshold calibration (paper §3.2.1).

For each network the paper explores thresholds on the *training* set,
measures (accuracy loss, computation reuse) per threshold, then picks the
largest-reuse threshold whose loss stays under the target (1% by
default).  ``calibrate_threshold`` implements exactly that selection, and
``ThresholdSweep`` stores the full exploration so the figure benches can
plot the trade-off curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

#: (quality_loss, reuse_fraction) produced by evaluating one threshold.
EvalResult = Tuple[float, float]
EvalFn = Callable[[float], EvalResult]


@dataclass(frozen=True)
class SweepPoint:
    """One explored threshold."""

    theta: float
    loss: float
    reuse: float


@dataclass
class ThresholdSweep:
    """The full exploration record for one network/predictor."""

    points: List[SweepPoint] = field(default_factory=list)

    def add(self, theta: float, loss: float, reuse: float) -> None:
        self.points.append(SweepPoint(theta, loss, reuse))

    @property
    def thetas(self) -> List[float]:
        return [p.theta for p in self.points]

    @property
    def losses(self) -> List[float]:
        return [p.loss for p in self.points]

    @property
    def reuses(self) -> List[float]:
        return [p.reuse for p in self.points]

    def best_under_loss(self, max_loss: float) -> Optional[SweepPoint]:
        """Highest-reuse point whose loss is within ``max_loss``."""
        admissible = [p for p in self.points if p.loss <= max_loss]
        if not admissible:
            return None
        return max(admissible, key=lambda p: p.reuse)

    def select(self, max_loss: float) -> float:
        """§3.2.1's choice: the highest-reuse θ within ``max_loss``.

        When no explored θ meets the budget this returns the smallest
        one, the most conservative setting.
        """
        best = self.best_under_loss(max_loss)
        return best.theta if best is not None else min(self.thetas)

    def reuse_at_loss(self, max_loss: float) -> float:
        """Reuse fraction achievable at ``max_loss`` (0.0 if none)."""
        best = self.best_under_loss(max_loss)
        return best.reuse if best is not None else 0.0


def sweep_thresholds(evaluate: EvalFn, thetas: Sequence[float]) -> ThresholdSweep:
    """Evaluate every threshold in ``thetas``.

    Args:
        evaluate: maps a threshold to ``(quality_loss, reuse_fraction)``
            — typically a closure running memoized inference on the
            calibration split.
        thetas: thresholds to explore (the paper uses a grid from 0 to
            ~1 depending on the network).
    """
    if not thetas:
        raise ValueError("thetas must be non-empty")
    sweep = ThresholdSweep()
    for theta in thetas:
        if theta < 0:
            raise ValueError("thresholds must be non-negative")
        loss, reuse = evaluate(theta)
        sweep.add(theta, loss, reuse)
    return sweep


#: evaluate(layer_thetas) -> (loss, reuse) for the per-layer calibrator.
LayerEvalFn = Callable[[dict], EvalResult]


def calibrate_per_layer(
    evaluate: LayerEvalFn,
    layer_names: Sequence[str],
    thetas: Sequence[float],
    max_loss: float = 1.0,
) -> Tuple[dict, EvalResult]:
    """Greedy per-layer threshold calibration (extension beyond §3.2.1).

    The paper uses one global threshold; layers differ in how much drift
    they tolerate (deep layers see slowly-varying hidden states, early
    layers see raw inputs), so a per-layer assignment can reuse more at
    the same loss budget.  Coordinate ascent: starting from the smallest
    threshold everywhere, raise one layer's threshold at a time, keeping
    each raise only if the loss stays within budget.

    Args:
        evaluate: maps a ``{layer: theta}`` dict to ``(loss, reuse)``.
        layer_names: dotted layer names (engine naming).
        thetas: ascending candidate thresholds.

    Returns:
        ``(best_assignment, (loss, reuse) at that assignment)``.
    """
    if not layer_names:
        raise ValueError("need at least one layer")
    if not thetas:
        raise ValueError("thetas must be non-empty")
    grid = sorted(thetas)
    assignment = {name: grid[0] for name in layer_names}
    best = evaluate(dict(assignment))
    for name in layer_names:
        for theta in grid[1:]:
            candidate = dict(assignment)
            candidate[name] = theta
            loss, reuse = evaluate(candidate)
            if loss <= max_loss and reuse >= best[1]:
                assignment = candidate
                best = (loss, reuse)
            elif loss > max_loss:
                break
    return assignment, best


def calibrate_threshold(
    evaluate: EvalFn,
    thetas: Sequence[float],
    max_loss: float = 1.0,
) -> Tuple[float, ThresholdSweep]:
    """§3.2.1: pick the highest-reuse threshold within the loss budget.

    Returns:
        ``(theta, sweep)``, with ``theta`` chosen by
        :meth:`ThresholdSweep.select`.
    """
    sweep = sweep_thresholds(evaluate, thetas)
    return sweep.select(max_loss), sweep
