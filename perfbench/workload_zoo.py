"""zoo-e2e: the ``repro e2e`` pipeline over the trained bench-scale zoo.

Closed loop, one thread, in process.  Set-up trains the four bench-scale
zoo networks (hidden sizes 20-64) from the workload seed.  Each pass
then runs, per network, ``end_to_end`` at the default 1.0 loss target
and theta grid, plus the plain ``Benchmark.evaluate``, through a
``ParallelRunner(SerialBackend, ResultCache)``.  Every cold pass gets a
fresh cache directory, so all 36 points are evaluated and written; one
warm pass at the end re-reads the last cold cache.

At these sizes the per-call overhead dominates, together with the
embedding, the output projection, the MNMT greedy decode loop, the
metric accumulators and the runner's cache writes, none of which
engine-paper touches: a kernel that wins at paper geometry but loses at
small shapes shows up here.

Cold passes are timed in laps split at every recurrent cell timestep
(see :func:`benchlib.best_laps`): ``throughput`` is memoized rows per
second through ``end_to_end`` with every lap at the fastest time it took
in the run.

Verification, each check counted as one attempted operation: every
cold pass returns exactly the first pass's results (thresholds, sweeps,
test results, reuse counts, E-PUR figures and plain quality), evaluates
all 36 points with no cache hit, and the warm pass returns the same
results from 36 cache hits.  Traced runs also check that the self times
of the reported spans add up to the traced wall time within 5%.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from benchlib import Metrics, Outcome, best_laps, median, peak_rss_mb, pin, quiet_cpus
from spans import LapClock, Tracer, self_check, step_lap_targets

from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import end_to_end
from repro.core import engine as engine_module
from repro.core.layers import MemoizedRecurrentLayer
from repro.core.memo import MemoTable
from repro.core.predictors import BNNGatePredictor
from repro.core.stats import ReuseStats
from repro.metrics.accumulators import (
    AccuracyAccumulator,
    BLEUAccumulator,
    WERAccumulator,
)
from repro.models.benchmark import Benchmark
from repro.models.sentiment_model import SentimentModel
from repro.models.speech_model import SpeechModel
from repro.models.translation_model import TranslationModel
from repro.models.zoo import build_benchmark
from repro.nn import Bidirectional, GRULayer, LSTMLayer, RNNStack
from repro.nn.embedding import Embedding
from repro.nn.linear import Linear
from repro.runner import DEFAULT_THETAS, ParallelRunner, ResultCache, SerialBackend
from repro.runner.job import result_to_payload

NAME = "zoo-e2e"
NETWORKS = ("imdb", "deepspeech2", "eesen", "mnmt")
SCALE = "bench"
LOSS_TARGET = 1.0
#: Calibration sweep points plus the test point, per network.
POINTS_PER_PASS = len(NETWORKS) * (len(DEFAULT_THETAS) + 1)

#: Traced spans reported as self milliseconds per cold pass, summed over
#: the networks: (span name, scope or None for all, metric name).
SPAN_METRICS = (
    ("models.forward", None, "models.forward_self_ms"),
    ("nn.embedding", None, "nn.embedding.ms"),
    ("nn.linear", None, "nn.linear.ms"),
    ("nn.recurrent", None, "nn.recurrent.ms"),
    ("models.decode_loop", "mnmt", "models.mnmt.decode_loop_ms"),
    ("core.engine", None, "core.engine.ms"),
    ("core.predictor", None, "core.predictor.ms"),
    ("core.memo", None, "core.memo.ms"),
    ("core.stats", None, "core.stats.ms"),
    ("metrics.accumulators", None, "metrics.accumulators.ms"),
    ("runner", None, "runner.self_ms"),
    ("runner.cache.put", None, "runner.cache.put_ms"),
    ("runner.cache.get", None, "runner.cache.get_ms"),
    ("accel.compare", None, "accel.compare_ms"),
)


def _memo_eval_span(args: tuple, kwargs: dict) -> str:
    calibration = kwargs.get("calibration", args[2] if len(args) > 2 else False)
    return "models.memo_eval.calibration" if calibration else "models.memo_eval.test"


def coarse_targets():
    """Whole-evaluation timers: two spans per evaluation call."""
    return (
        (Benchmark, "evaluate_memoized", _memo_eval_span),
        (Benchmark, "evaluate", "models.plain_eval"),
    )


def trace_targets():
    """Every layer boundary the traced passes time, with span names."""
    accumulators = tuple(
        (cls, method, "metrics.accumulators")
        for cls in (AccuracyAccumulator, WERAccumulator, BLEUAccumulator)
        for method in ("update", "finalize")
    )
    models = tuple(
        (cls, method, "models.forward")
        for cls, method in (
            (SentimentModel, "forward"),
            (SpeechModel, "forward"),
            (TranslationModel, "encode"),
        )
    )
    recurrent = tuple(
        (cls, "forward", "nn.recurrent")
        for cls in (LSTMLayer, GRULayer, Bidirectional, RNNStack)
    )
    return accumulators + models + recurrent + (
        (TranslationModel, "translate", "models.decode_loop"),
        (Embedding, "forward", "nn.embedding"),
        (Linear, "forward", "nn.linear"),
        (MemoizedRecurrentLayer, "forward", "core.engine"),
        (MemoizedRecurrentLayer, "step", "core.engine"),
        (engine_module, "apply_memoization", "core.engine"),
        (engine_module, "restore", "core.engine"),
        (BNNGatePredictor, "predict_many", "core.predictor"),
        (MemoTable, "substitute", "core.memo"),
        (ReuseStats, "record", "core.stats"),
        (ParallelRunner, "run", "runner"),
        (ResultCache, "put", "runner.cache.put"),
        (ResultCache, "get", "runner.cache.get"),
        (sweep_module, "compare", "accel.compare"),
    )


def _canonical(result) -> str:
    """Every number ``end_to_end`` returned, serialized exactly."""
    return json.dumps(
        {
            "theta": result.theta,
            "sweep": [[p.theta, p.loss, p.reuse] for p in result.calibration_sweep.points],
            "test": result_to_payload(result.test_result),
            "energy_savings": result.comparison.energy_savings_percent,
            "speedup": result.comparison.speedup,
        },
        sort_keys=True,
    )


class Pass:
    """Timings and results of one pass over the four networks."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        #: Per network: the laps of ``end_to_end``.
        self.memo_laps: Dict[str, List[float]] = {}
        self.results: Dict[str, str] = {}
        self.quality: Dict[str, float] = {}
        self.reuse: Dict[str, float] = {}
        self.hits = 0
        self.misses = 0


def run_pass(benches: Dict[str, Benchmark], cache_dir: Path, clock: LapClock,
             tracer: Optional[Tracer]) -> Pass:
    record = Pass()
    start = perf_counter()
    runner = ParallelRunner(cache=ResultCache(cache_dir), backend=SerialBackend())
    with runner:
        for name, bench in benches.items():
            if tracer is not None:
                tracer.scope = name
            clock.start()
            result = end_to_end(bench, loss_target=LOSS_TARGET, runner=runner)
            record.memo_laps[name] = clock.stop()
            quality = bench.evaluate()
            record.results[name] = _canonical(result)
            record.quality[name] = quality
            record.reuse[name] = result.test_result.reuse_fraction
    record.hits, record.misses = runner.hits, runner.misses
    record.wall_s = perf_counter() - start
    return record


def _verify(outcome: Outcome, record: Pass, reference: Pass, label: str, warm: bool) -> None:
    for name in NETWORKS:
        outcome.check(
            record.results[name] == reference.results[name]
            and record.quality[name] == reference.quality[name],
            f"{label}: {name} results differ from the first cold pass",
        )
    expected = (POINTS_PER_PASS, 0) if warm else (0, POINTS_PER_PASS)
    outcome.check(
        (record.hits, record.misses) == expected,
        f"{label}: {record.hits} cache hits / {record.misses} misses, expected "
        f"{expected[0]} / {expected[1]}",
    )


def run(root, seed: int, seconds: float, trace: bool, workdir: Path) -> Tuple[Metrics, Outcome]:
    del root
    pin(quiet_cpus()[0])
    metrics, outcome = Metrics(), Outcome()
    start = perf_counter()
    benches: Dict[str, Benchmark] = {}
    train_s: Dict[str, float] = {}
    for name in NETWORKS:
        bench = build_benchmark(name, scale=SCALE, seed=seed)
        began = perf_counter()
        bench.train()
        train_s[name] = perf_counter() - began
        benches[name] = bench
    setup_s = perf_counter() - start
    memo_rows = sum(
        len(DEFAULT_THETAS) * len(b.eval_indices(True)) + len(b.eval_indices())
        for b in benches.values()
    )

    def fresh_cache() -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))

    clock = LapClock()
    reference = run_pass(benches, fresh_cache(), clock, None)  # warm-up
    _verify(outcome, reference, reference, "first cold pass", warm=False)
    cold: List[Pass] = []
    traced: List[Pass] = []
    coarse_ms: List[Dict[str, Tuple[float, float]]] = []
    tracer, timer = (Tracer(), Tracer()) if trace else (None, None)
    cache_dir = None
    began = perf_counter()
    while not cold or perf_counter() - began < seconds:
        cache_dir = fresh_cache()
        with clock.installed(step_lap_targets()):
            if timer is None:
                cold.append(run_pass(benches, cache_dir, clock, None))
            else:
                timer.reset()
                with timer.installed(coarse_targets()):
                    cold.append(run_pass(benches, cache_dir, clock, timer))
                coarse_ms.append(
                    {
                        name: (
                            timer.total_time("models.memo_eval.test", name),
                            timer.total_time("models.plain_eval", name),
                        )
                        for name in NETWORKS
                    }
                )
        _verify(outcome, cold[-1], reference, f"cold pass {len(cold)}", warm=False)
        if tracer is not None:
            with tracer.installed(trace_targets()):
                traced.append(run_pass(benches, fresh_cache(), clock, tracer))
            _verify(outcome, traced[-1], reference, f"traced pass {len(traced)}", warm=False)
    warm = run_pass(benches, cache_dir, clock, None)
    _verify(outcome, warm, reference, "warm pass", warm=True)

    if not trace:
        memo_s = sum(best_laps([p.memo_laps[name] for p in cold]) for name in NETWORKS)
        metrics.add("setup_s", setup_s, "s")
        metrics.add("throughput", memo_rows / memo_s, "1/s")
        metrics.add("peak_rss_mb", peak_rss_mb(), "MiB")
        return metrics, outcome

    for name in NETWORKS:
        memo_ms = [1000.0 * per[name][0] for per in coarse_ms]
        metrics.add(f"models.{name}.train_s", train_s[name], "s")
        metrics.add(f"models.{name}.memo_eval_ms", median(memo_ms), "ms")
        metrics.add(
            f"models.{name}.overhead_ratio",
            median([per[name][0] / per[name][1] for per in coarse_ms]),
            "ratio",
        )
        metrics.add(f"models.{name}.reuse_fraction", reference.reuse[name], "fraction")
    per_pass_ms = 1000.0 / len(traced)
    traced_wall = sum(p.wall_s for p in traced)
    reported = 0.0
    for span, scope, metric in SPAN_METRICS:
        self_s = tracer.self_time(span, scope)
        reported += self_s
        metrics.add(metric, self_s * per_pass_ms, "ms")
    warm_s = sum(sum(laps) for laps in warm.memo_laps.values())
    metrics.add("runner.warm_pass_ms", 1000.0 * warm_s, "ms")
    metrics.add(
        f"trace.overhead.{NAME}",
        median([p.wall_s for p in traced]) / median([p.wall_s for p in cold]),
        "ratio",
    )
    metrics.add(f"trace.coverage.{NAME}", reported / traced_wall, "fraction")
    outcome.check(
        self_check(reported, traced_wall),
        f"reported span self times {reported:.3f}s do not account for the "
        f"traced wall time {traced_wall:.3f}s within 5%",
    )
    return metrics, outcome
