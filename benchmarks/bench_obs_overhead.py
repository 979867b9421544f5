"""Cost of the engine profiling fences — proven ~zero when disabled.

The memoized hot path (:class:`~repro.core.layers.MemoizedRecurrentLayer`)
pays for observability one module-attribute read per ``forward``, per
``step`` and per ``on_gates`` call — ``repro.obs.profiler.ACTIVE`` —
plus one ``None`` check per timing fence; when no profiler is installed
every fence is skipped.  This bench pins that claim with three variants
per Table 1 network:

- ``baseline``: fence-free copies of ``step``/``on_gates`` monkeypatched
  onto the wrapper — the same phase body with the profiler reads and
  fences deleted;
- ``disabled``: the shipped path with no profiler installed (the
  production default);
- ``enabled``: the shipped path under :func:`~repro.obs.profiled`, i.e.
  the same phase body with its ``perf_counter`` fences live.

All three variants run the same weights on the same inputs and are
asserted bitwise identical (outputs and reuse counts) — enabling
profiling must not change a single bit.  Timing is interleaved
(every round times all three variants back-to-back) and min-of-rounds,
so slow-host drift hits all variants alike.

Results land in ``BENCH_obs.json`` at the repo root; CI re-runs this
bench and uploads the file as an artifact.

``REPRO_BENCH_OBS_MAX_OVERHEAD`` overrides the asserted ceiling on the
aggregate disabled-vs-baseline overhead (percent; default 2.0 — raise
it on a noisy host).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional

import numpy as np
import pytest

from repro.core.binarization import pack_signs
from repro.core.engine import MemoizationScheme, apply_memoization, restore
from repro.core.layers import MemoizedRecurrentLayer
from repro.core.stats import ReuseStats
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS, NetworkSpec
from repro.nn import Bidirectional, GRULayer, LSTMLayer, RNNStack
from repro.obs import Profiler, profiled

Array = np.ndarray

BATCH, TIMESTEPS = 16, 16
THETA = 0.3
PREDICTOR = "bnn"

#: Directional-layer cap (overhead per layer-timestep is what matters;
#: shallow stacks keep the three-variant sweep fast).
DEPTH_CAP = 2

#: Interleaved timing rounds per network; min-of-rounds is reported.
ROUNDS = 5

VARIANTS = ("baseline", "disabled", "enabled")

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


# -- fence-free baseline -----------------------------------------------------
#
# Copies of the wrapper's ``step`` and ``on_gates`` with the profiler
# read and the timing fences removed.  Keep them in step with
# repro.core.layers: the bitwise check below catches a body that drifts.


def _step_hookfree(self, x_t, state, xw=None):
    if xw is None:
        xw = self.cell.project_inputs(x_t)
    return self.cell.step_hooked(x_t, xw, state, hook=self)


def _on_gates_hookfree(self, cell, phase, x, h, preacts):
    predictor = self._phase_predictors[phase.index]
    table = self._tables[phase.index]
    packed = operand = None
    if predictor.REQUIRES:
        operand = np.concatenate([x, h], axis=-1)
        if "packed" in predictor.REQUIRES:
            packed = pack_signs(operand)
            if "operand" not in predictor.REQUIRES:
                operand = None
    mask = predictor.predict_many(packed, preacts=preacts, operand=operand, memo=table.memo)
    outputs = table.substitute(mask, preacts)
    hidden = self.hidden_size
    for i, gate in enumerate(phase.gates):
        self.stats.record(self.name, gate, mask[:, i * hidden : (i + 1) * hidden])
    return outputs


@contextmanager
def _hookfree_engine():
    """Swap the fenced ``step``/``on_gates`` for the fence-free copies."""
    step, on_gates = MemoizedRecurrentLayer.step, MemoizedRecurrentLayer.on_gates
    MemoizedRecurrentLayer.step = _step_hookfree
    MemoizedRecurrentLayer.on_gates = _on_gates_hookfree
    try:
        yield
    finally:
        MemoizedRecurrentLayer.step = step
        MemoizedRecurrentLayer.on_gates = on_gates


# -- workload ----------------------------------------------------------------


def _build_stack(spec: NetworkSpec, depth_cap: int = DEPTH_CAP):
    rng = np.random.default_rng(7)
    widths = spec.layer_input_sizes()
    if spec.bidirectional:
        pair_widths = widths[::2][: max(1, depth_cap // 2)]
        maker = Bidirectional.lstm if spec.cell_type == "lstm" else Bidirectional.gru
        layers = [maker(w, spec.neurons, rng=rng) for w in pair_widths]
        return RNNStack(layers)
    maker = LSTMLayer if spec.cell_type == "lstm" else GRULayer
    layers = [maker(w, spec.neurons, rng=rng) for w in widths[:depth_cap]]
    return RNNStack(layers)


class _Measurement:
    """One network's three-variant result."""

    def __init__(self):
        self.seconds: Dict[str, float] = {}
        self.outputs: Dict[str, Array] = {}
        self.reused: Dict[str, Dict] = {}
        self.total: Dict[str, Dict] = {}
        self.profile: Optional[Dict[str, object]] = None


_runs: Dict[str, _Measurement] = {}


def _measure(name: str) -> _Measurement:
    spec = PAPER_NETWORKS[name]
    stack = _build_stack(spec)
    rng = np.random.default_rng(11)
    inputs = rng.standard_normal((BATCH, TIMESTEPS, spec.input_size))
    scheme = MemoizationScheme(theta=THETA, predictor=PREDICTOR)
    stats = ReuseStats()
    replacements = apply_memoization(stack, scheme, stats)
    result = _Measurement()
    try:

        def run_variant(variant: str) -> float:
            stats.reset()
            if variant == "baseline":
                with _hookfree_engine():
                    start = perf_counter()
                    outputs = stack(inputs)
                    seconds = perf_counter() - start
            elif variant == "disabled":
                start = perf_counter()
                outputs = stack(inputs)
                seconds = perf_counter() - start
            else:
                profiler = Profiler()
                with profiled(profiler):
                    start = perf_counter()
                    outputs = stack(inputs)
                    seconds = perf_counter() - start
                result.profile = profiler.snapshot()
            result.outputs[variant] = outputs
            result.reused[variant] = dict(stats.reused)
            result.total[variant] = dict(stats.total)
            return seconds

        run_variant("disabled")  # warmup: touch caches, allocate buffers
        for _ in range(ROUNDS):
            for variant in VARIANTS:
                seconds = run_variant(variant)
                best = result.seconds.get(variant)
                if best is None or seconds < best:
                    result.seconds[variant] = seconds
    finally:
        restore(replacements)
    return result


def _overhead_pct(base: float, other: float) -> float:
    return 100.0 * (other / base - 1.0)


@pytest.fixture(scope="module")
def obs_report():
    """Collects per-network measurements; writes BENCH_obs.json last."""
    yield _runs
    if not _runs:
        return
    networks = {}
    for name, run in _runs.items():
        baseline = run.seconds["baseline"]
        entry = {
            "baseline_s": baseline,
            "disabled_s": run.seconds["disabled"],
            "enabled_s": run.seconds["enabled"],
            "disabled_overhead_pct": _overhead_pct(baseline, run.seconds["disabled"]),
            "enabled_overhead_pct": _overhead_pct(baseline, run.seconds["enabled"]),
            "bitwise_equal": bool(
                all(
                    np.array_equal(run.outputs["baseline"], run.outputs[v])
                    and run.reused["baseline"] == run.reused[v]
                    and run.total["baseline"] == run.total[v]
                    for v in ("disabled", "enabled")
                )
            ),
        }
        if run.profile is not None:
            layers = run.profile.get("layers", {})
            entry["profile"] = {
                "layers": len(layers),
                "steps": sum(layer.get("steps", 0) for layer in layers.values()),
                "predict_s": sum(
                    phase["predict_s"]
                    for layer in layers.values()
                    for phase in layer["phases"].values()
                ),
                "substitute_s": sum(
                    phase["substitute_s"]
                    for layer in layers.values()
                    for phase in layer["phases"].values()
                ),
                "project_s": sum(layer["project_s"] for layer in layers.values()),
                "table_allocations": len(run.profile.get("table_allocations", [])),
            }
        networks[name] = entry
    base_total = sum(run.seconds["baseline"] for run in _runs.values())
    disabled_total = sum(run.seconds["disabled"] for run in _runs.values())
    report = {
        "scale": "paper-geometry",
        "theta": THETA,
        "predictor": PREDICTOR,
        "batch": BATCH,
        "timesteps": TIMESTEPS,
        "rounds": ROUNDS,
        "networks": networks,
        "aggregate_disabled_overhead_pct": _overhead_pct(base_total, disabled_total),
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_variants(benchmark, obs_report, name):
    """Time the three variants interleaved; all must agree bitwise."""
    run = _measure(name)
    obs_report[name] = run
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for extra, value in run.seconds.items():
        benchmark.extra_info[f"{extra}_s"] = value
    for variant in ("disabled", "enabled"):
        np.testing.assert_array_equal(
            run.outputs["baseline"], run.outputs[variant]
        ), variant
        assert run.reused["baseline"] == run.reused[variant]
        assert run.total["baseline"] == run.total[variant]
    # The enabled run must actually have profiled something.
    assert run.profile is not None
    assert run.profile["layers"], "profiler saw no layers"
    profiled_reuse = sum(
        phase["reused"]
        for layer in run.profile["layers"].values()
        for phase in layer["phases"].values()
    )
    assert profiled_reuse == sum(run.reused["enabled"].values())


def test_disabled_overhead_floor(benchmark, obs_report):
    """Disabled hooks must cost < the pinned ceiling vs hook-free code."""
    if not obs_report:
        pytest.skip("no measurements collected")
    ceiling = float(os.environ.get("REPRO_BENCH_OBS_MAX_OVERHEAD", "2.0"))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base = sum(run.seconds["baseline"] for run in obs_report.values())
    disabled = sum(run.seconds["disabled"] for run in obs_report.values())
    overhead = _overhead_pct(base, disabled)
    per_network = {
        name: _overhead_pct(run.seconds["baseline"], run.seconds["disabled"])
        for name, run in obs_report.items()
    }
    lines = [f"{name:12s} {pct:+6.2f}%" for name, pct in per_network.items()]
    print("\n=== disabled-profiler overhead vs hook-free ===\n" + "\n".join(lines))
    benchmark.extra_info["aggregate_overhead_pct"] = overhead
    assert overhead < ceiling, (
        f"disabled profiling hooks cost {overhead:.2f}% aggregate "
        f"(ceiling {ceiling}%) — see BENCH_obs.json"
    )
