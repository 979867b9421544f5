"""engine-paper: the memoized recurrent engine at paper gate geometry.

Closed loop, one thread, in process.  The four Table 1 recurrent stacks
are built at their paper gate geometry by ``benchmarks/bench_eval.py``'s
own builder (cell type, neurons per layer and direction, layer widths,
depth-capped at four directional layers, fixed random weights) and run
a batch of 16 sequences x 16 timesteps of seeded random inputs under the
BNN predictor at theta 0.3.

Set-up builds the stacks and wraps one weight-sharing clone of each
(``clone_with_shared_parameters`` + ``apply_memoization``), so rounds
never pay for wrapping.  A round runs one memoized forward per network;
in traced runs, where the memoized-to-plain ratio is reported, each
round also runs the plain forward of the same weights, interleaved and
alternating which goes first.  The predictor, memo substitution and
cell GEMMs do almost all of the work.  The plain forward is the
in-workload bypass: a predictor change should not move it.

Forwards are timed in laps split at every layer-timestep and at every
call the traced rounds trace (see :func:`benchlib.best_laps`):
``throughput`` is memoized layer-timesteps per second with every lap at
the fastest time it took in the run.

Verification, each check counted as one attempted operation:

- every round's memoized outputs and reuse counts, and its plain
  outputs, equal the warm-up round's bitwise;
- per network, one theta=0 oracle forward equals the plain forward
  bitwise (oracle exactness);
- in traced runs, the self times of the reported spans add up to the
  traced wall time within 5%.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchlib import Metrics, Outcome, best_laps, median, peak_rss_mb, pin, quiet_cpus
from spans import LapClock, Tracer, self_check, step_lap_targets

from repro.core import layers as core_layers
from repro.core.bnn import BinaryGate
from repro.core.engine import (
    MemoizationScheme,
    apply_memoization,
    iter_recurrent_layers,
)
from repro.core.layers import MemoizedRecurrentLayer
from repro.core.memo import MemoTable
from repro.core.predictors import BNNGatePredictor
from repro.core.stats import ReuseStats
from repro.models.specs import PAPER_NETWORKS
from repro.nn import GRULayer, LSTMLayer
from repro.nn.cells import GatedCell
from repro.nn.gru import GRUCell
from repro.nn.lstm import LSTMCell
from repro.nn.module import clone_with_shared_parameters

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_eval import BATCH, DEPTH_CAP, PREDICTOR, THETA, TIMESTEPS  # noqa: E402
from bench_eval import _build_stack as build_stack  # noqa: E402

NAME = "engine-paper"
NETWORKS = ("imdb", "deepspeech2", "eesen", "mnmt")
SETUP_REPEATS = 3

#: Traced spans reported per network, as self time per memoized (for
#: ``plain_*``, plain) layer-timestep in microseconds:
#: (span name, metric prefix).
SPAN_METRICS = (
    ("core.binarization.pack", "core.binarization.pack_us"),
    ("core.bnn.popcount", "core.bnn.popcount_us"),
    ("core.predictors.decide", "core.predictors.decide_us"),
    ("core.layers.hook_self", "core.layers.hook_self_us"),
    ("core.memo.substitute", "core.memo.substitute_us"),
    ("core.stats.record", "core.stats.record_us"),
    ("nn.cells.gemm", "nn.cells.gemm_us"),
    ("nn.cells.gate_math", "nn.cells.gate_math_us"),
    ("core.layers.forward_self", "core.layers.forward_self_us"),
    ("nn.cells.plain_gemm", "nn.cells.plain_gemm_us"),
    ("nn.cells.plain_gate_math", "nn.cells.plain_gate_math_us"),
    ("nn.layers.plain_forward_self", "nn.layers.plain_forward_self_us"),
)


def lap_targets():
    """Lap boundaries: every timestep and every traced call within it."""
    return step_lap_targets() + tuple((owner, attr, "") for owner, attr, _ in trace_targets())


def trace_targets():
    """The callables the traced rounds time, with their span names."""
    return (
        # memoized path: layer loop -> cell step -> GEMMs, hook -> pack/predict/memo/stats
        (MemoizedRecurrentLayer, "forward", "core.layers.forward_self"),
        (GatedCell, "phase_preacts", "nn.cells.gemm"),
        (LSTMCell, "step_hooked", "nn.cells.gate_math"),
        (GRUCell, "step_hooked", "nn.cells.gate_math"),
        (MemoizedRecurrentLayer, "on_gates", "core.layers.hook_self"),
        (core_layers, "pack_signs", "core.binarization.pack"),
        (BNNGatePredictor, "predict_many", "core.predictors.decide"),
        (BinaryGate, "evaluate_packed", "core.bnn.popcount"),
        (MemoTable, "substitute", "core.memo.substitute"),
        (ReuseStats, "record", "core.stats.record"),
        # plain path: layer loop -> dict-based cell step -> per-gate GEMMs
        (LSTMLayer, "forward", "nn.layers.plain_forward_self"),
        (GRULayer, "forward", "nn.layers.plain_forward_self"),
        (LSTMCell, "gate_preacts", "nn.cells.plain_gemm"),
        (GRUCell, "zr_preacts", "nn.cells.plain_gemm"),
        (GRUCell, "g_preact", "nn.cells.plain_gemm"),
        (LSTMCell, "step", "nn.cells.plain_gate_math"),
        (GRUCell, "step", "nn.cells.plain_gate_math"),
    )


class Network:
    """One plain stack, its memoized clone and its seeded inputs."""

    def __init__(self, name: str, seed: int):
        spec = PAPER_NETWORKS[name]
        self.name = name
        self.plain, self.layers = build_stack(spec, DEPTH_CAP)
        self.memo = clone_with_shared_parameters(self.plain)
        self.stats = ReuseStats()
        apply_memoization(
            self.memo, MemoizationScheme(theta=THETA, predictor=PREDICTOR), self.stats
        )
        self.inputs = np.random.default_rng([seed, 11]).standard_normal(
            (BATCH, TIMESTEPS, spec.input_size)
        )
        self.layer_timesteps = BATCH * TIMESTEPS * self.layers

    def xor_mb_per_step(self) -> float:
        """MB of ``(B, N, W)`` uint64 XOR tensor the packed popcount builds
        per memoized layer-timestep, from the tensor shapes."""
        total = 0
        for layer, _ in iter_recurrent_layers(self.plain):
            words = -(-(layer.input_size + layer.hidden_size) // 64)
            for phase in layer.cell.PHASES:
                total += BATCH * len(phase.gates) * layer.hidden_size * words * 8
        return total / self.layers / 1e6


class Forward:
    """One forward: its laps (when timed), output and reuse counts."""

    def __init__(self, laps: Optional[List[float]], output: np.ndarray,
                 reuse: Optional[tuple] = None):
        self.laps = laps
        self.output = output
        self.reuse = reuse


#: Per network: (memoized forward, plain forward or None).
Round = Dict[str, Tuple[Forward, Optional[Forward]]]


def _memo_forward(net: Network, clock: Optional[LapClock]) -> Forward:
    net.stats.reset()
    if clock is not None:
        clock.start()
    output = net.memo(net.inputs)
    laps = clock.stop() if clock is not None else None
    return Forward(laps, output, (dict(net.stats.reused), dict(net.stats.total)))


def _plain_forward(net: Network, clock: Optional[LapClock]) -> Forward:
    if clock is not None:
        clock.start()
    output = net.plain(net.inputs)
    return Forward(clock.stop() if clock is not None else None, output)


def run_round(nets: List[Network], clock: Optional[LapClock], tracer: Optional[Tracer],
              plain: bool, memo_first: bool) -> Round:
    """One memoized (and optionally one plain) forward per network."""
    record: Round = {}
    for net in nets:
        if tracer is not None:
            tracer.scope = net.name
        if not plain:
            record[net.name] = (_memo_forward(net, clock), None)
        elif memo_first:
            memo = _memo_forward(net, clock)
            record[net.name] = (memo, _plain_forward(net, clock))
        else:
            other = _plain_forward(net, clock)
            record[net.name] = (_memo_forward(net, clock), other)
    return record


def _verify(outcome: Outcome, record: Round, reference: Round, label: str) -> None:
    for name, (memo, plain) in record.items():
        ref_memo, ref_plain = reference[name]
        outcome.check(
            np.array_equal(memo.output, ref_memo.output) and memo.reuse == ref_memo.reuse,
            f"{label}: {name} memoized forward differs from the warm-up round",
        )
        if plain is not None:
            outcome.check(
                np.array_equal(plain.output, ref_plain.output),
                f"{label}: {name} plain forward differs from the warm-up round",
            )


def _oracle_matches_plain(net: Network, plain_output: np.ndarray) -> bool:
    """A theta=0 oracle clone must reproduce the plain forward bitwise."""
    clone = clone_with_shared_parameters(net.plain)
    apply_memoization(clone, MemoizationScheme(theta=0.0, predictor="oracle"), ReuseStats())
    return np.array_equal(clone(net.inputs), plain_output)


def run(root, seed: int, seconds: float, trace: bool, workdir) -> Tuple[Metrics, Outcome]:
    del root, workdir
    pin(quiet_cpus()[0])
    metrics, outcome = Metrics(), Outcome()
    setup_s: List[float] = []
    nets: List[Network] = []
    for _ in range(SETUP_REPEATS):
        nets = []
        gc.collect()
        start = perf_counter()
        nets = [Network(name, seed) for name in NETWORKS]
        setup_s.append(perf_counter() - start)

    reference = run_round(nets, None, None, plain=True, memo_first=True)  # warm-up
    clock = LapClock()
    tracer = Tracer() if trace else None
    rounds: List[Round] = []
    walls: List[float] = []
    traced_walls: List[float] = []
    began = perf_counter()
    while not rounds or perf_counter() - began < seconds:
        memo_first = len(rounds) % 2 == 0
        with clock.installed(lap_targets()):
            start = perf_counter()
            rounds.append(run_round(nets, clock, None, plain=trace, memo_first=memo_first))
            walls.append(perf_counter() - start)
        _verify(outcome, rounds[-1], reference, f"round {len(rounds)}")
        if tracer is not None:
            with tracer.installed(trace_targets()):
                start = perf_counter()
                record = run_round(nets, None, tracer, plain=True, memo_first=memo_first)
                traced_walls.append(perf_counter() - start)
            _verify(outcome, record, reference, f"traced round {len(traced_walls)}")
    for net in nets:
        outcome.check(
            _oracle_matches_plain(net, reference[net.name][1].output),
            f"{net.name}: theta=0 oracle forward differs from the plain forward",
        )

    def best(name: str, which: int) -> float:
        return best_laps([r[name][which].laps for r in rounds])

    if not trace:
        steps = sum(net.layer_timesteps for net in nets)
        metrics.add("setup_s", median(setup_s), "s")
        metrics.add("throughput", steps / sum(best(net.name, 0) for net in nets), "1/s")
        metrics.add("peak_rss_mb", peak_rss_mb(), "MiB")
        return metrics, outcome

    for net in nets:
        name, steps = net.name, net.layer_timesteps
        per_step_us = 1e6 / (len(traced_walls) * steps)
        for span, prefix in SPAN_METRICS:
            metrics.add(f"{prefix}.{name}", tracer.self_time(span, name) * per_step_us, "us")
        metrics.add(f"core.bnn.xor_mb_per_step.{name}", net.xor_mb_per_step(), "MB")
        reused, total = reference[name][0].reuse
        metrics.add(
            f"core.reuse_fraction.{name}",
            sum(reused.values()) / sum(total.values()),
            "fraction",
        )
        memo_s, plain_s = best(name, 0), best(name, 1)
        metrics.add(f"engine.{name}.memo_step_us", memo_s * 1e6 / steps, "us")
        metrics.add(f"engine.{name}.plain_step_us", plain_s * 1e6 / steps, "us")
        metrics.add(f"engine.{name}.overhead_ratio", memo_s / plain_s, "ratio")
    metrics.add(f"trace.overhead.{NAME}", median(traced_walls) / median(walls), "ratio")
    reported = sum(tracer.self_time(span) for span, _ in SPAN_METRICS)
    metrics.add(f"trace.coverage.{NAME}", reported / sum(traced_walls), "fraction")
    outcome.check(
        self_check(reported, sum(traced_walls)),
        f"reported span self times {reported:.3f}s do not account for the "
        f"traced wall time {sum(traced_walls):.3f}s within 5%",
    )
    return metrics, outcome
