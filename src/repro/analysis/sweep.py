"""Threshold sweeps and end-to-end (functional -> accelerator) pipelines.

``end_to_end`` is the full methodology of §3.2.1 + §5 for one network:

1. sweep thresholds on the *calibration* split and pick the best theta
   within the accuracy-loss budget;
2. evaluate that theta on the test split (quality loss + reuse trace);
3. feed the measured reuse into the E-PUR model for energy and speedup.

Execution routes through :mod:`repro.runner`: each sweep point is a
point of a :class:`~repro.runner.SweepJob`, evaluated as the single
shard ``(0, 1)`` of its split or, with ``shards=N``, as ``N`` shards
that merge exactly.  A :class:`~repro.runner.ParallelRunner` resolves
each from its on-disk cache or hands it to any execution backend —
serial in-process, a local process pool, or the multi-host work queue
(build the runner with
``ParallelRunner(backend=make_backend("queue", ...))``).  The default
runner is serial and uncached; every backend and every shard count
produces bitwise-identical sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.accel.config import DEFAULT_CONFIG, EPURConfig
from repro.accel.epur import Comparison, compare
from repro.accel.trace import ReuseTrace
from repro.core.calibration import SweepPoint, ThresholdSweep
from repro.core.engine import MemoizationScheme
from repro.models.benchmark import Benchmark, MemoizedResult
from repro.runner import DEFAULT_THETAS, ParallelRunner, SerialBackend, SweepJob

__all__ = [
    "DEFAULT_THETAS",
    "EndToEndResult",
    "end_to_end",
    "frontier",
    "network_sweep",
]

#: Serial, uncached runner used when callers do not supply one.
_DEFAULT_RUNNER = ParallelRunner(cache=None, backend=SerialBackend())


def network_sweep(
    benchmark: Benchmark,
    scheme: MemoizationScheme,
    thetas: Sequence[float] = DEFAULT_THETAS,
    calibration: bool = False,
    runner: Optional[ParallelRunner] = None,
    shards: int = 1,
) -> ThresholdSweep:
    """Loss/reuse at every threshold for one network and predictor.

    ``shards > 1`` splits every threshold's evaluation per-batch into
    that many shards of the split; the merged sweep is bitwise
    identical to the unsharded serial path for any shard count.
    """
    runner = runner if runner is not None else _DEFAULT_RUNNER
    job = SweepJob.from_benchmark(benchmark, scheme, thetas, calibration)
    return runner.sweep(job, benchmark=benchmark, shards=shards)


def frontier(
    sweep: ThresholdSweep, loss_targets: Sequence[float]
) -> Dict[float, Optional[SweepPoint]]:
    """Best (highest-reuse) sweep point for each loss budget."""
    return {target: sweep.best_under_loss(target) for target in loss_targets}


@dataclass(frozen=True)
class EndToEndResult:
    """One network's row in Figures 17-19."""

    network: str
    loss_target: float
    theta: float
    calibration_sweep: ThresholdSweep
    test_result: MemoizedResult
    comparison: Comparison

    @property
    def reuse_percent(self) -> float:
        return self.test_result.reuse_percent

    @property
    def quality_loss(self) -> float:
        return self.test_result.quality_loss

    @property
    def energy_savings_percent(self) -> float:
        return self.comparison.energy_savings_percent

    @property
    def speedup(self) -> float:
        return self.comparison.speedup


def end_to_end(
    benchmark: Benchmark,
    loss_target: float,
    scheme: MemoizationScheme = MemoizationScheme(),
    thetas: Sequence[float] = DEFAULT_THETAS,
    config: EPURConfig = DEFAULT_CONFIG,
    runner: Optional[ParallelRunner] = None,
    shards: int = 1,
) -> EndToEndResult:
    """The full §3.2.1 + §5 pipeline for one network and loss budget.

    ``shards > 1`` shards both the calibration sweep and the final test
    evaluation per-batch; results are bitwise identical either way.
    """
    runner = runner if runner is not None else _DEFAULT_RUNNER
    job = SweepJob.from_benchmark(benchmark, scheme, thetas, calibration=True)
    calibration_sweep = runner.sweep(job, benchmark=benchmark, shards=shards)
    best = calibration_sweep.best_under_loss(loss_target)
    theta = best.theta if best is not None else min(thetas)

    test_job = SweepJob.from_benchmark(
        benchmark, scheme.with_theta(theta), (theta,), calibration=False
    )
    test_result = runner.run(test_job, benchmark=benchmark, shards=shards)[0]
    trace = ReuseTrace.from_stats(test_result.stats, benchmark.spec)
    comparison = compare(benchmark.spec, trace, config=config)
    return EndToEndResult(
        network=benchmark.name,
        loss_target=loss_target,
        theta=theta,
        calibration_sweep=calibration_sweep,
        test_result=test_result,
        comparison=comparison,
    )
