"""Cost of the memoization engine relative to the plain forward.

Times the four Table 1 networks' recurrent stacks — at their *paper*
gate geometries (cell type, neurons per layer/direction, layer widths) —
twice per network on the same weights and inputs:

- ``plain``: the unmemoized forward of the stack;
- ``memoized``: a weight-sharing clone of the stack under fuzzy
  memoization (BNN predictor, ``THETA``), i.e. the engine's one phase
  path: stacked-gate predictor, packed XNOR/popcount mirror, memo
  tables.

The two forwards are timed interleaved (alternating which goes first)
and each reports the minimum over ``ROUNDS`` rounds, so slow-host drift
hits both alike.  ``overhead_ratio`` = memoized / plain is the headline:
what simulating the scheme costs in wall clock on this host, measured
within one run so it carries across hosts better than absolute times.
Results are written to ``BENCH_eval.json`` at the repo root; CI re-runs
this bench and uploads the file as an artifact.

Correctness is asserted alongside: every memoized round reproduces the
first one bitwise (outputs and reuse counts), and a theta=0 oracle clone
reproduces the plain forward bitwise (oracle exactness).

Workload notes:

- The stack depth is capped (``layers_measured`` vs ``layers_paper`` in
  the JSON) to bound bench memory and runtime; per-layer-timestep cost
  is depth-independent, so the ratio is representative of the full
  stack.
- Weights are freshly initialised, not trained: the functional
  simulator's cost per timestep barely depends on weight values (reuse
  substitution is one ``np.where`` select either way, whose per-element
  branch costs somewhat more on a hard-to-predict reuse mask), so the
  cost — the quantity this bench pins — is measured faithfully.
  Quality under memoization is pinned elsewhere (golden suite, figure
  benches).
- ``REPRO_BENCH_EVAL_MAX_OVERHEAD`` overrides the final assertion's
  per-network ``overhead_ratio`` ceiling (default 2.5; raise it on a
  noisy host).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme, apply_memoization
from repro.core.stats import ReuseStats
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS, NetworkSpec
from repro.nn import Bidirectional, GRULayer, LSTMLayer, RNNStack
from repro.nn.module import clone_with_shared_parameters

Array = np.ndarray

#: Fixed tiny sweep: one batched forward pass per (network, mode, round).
BATCH, TIMESTEPS = 16, 16
THETA = 0.3
PREDICTOR = "bnn"

#: Directional-layer cap per network (memory/runtime bound; the JSON
#: records both the measured and the paper depth).
DEPTH_CAP = 4

#: Interleaved timing rounds per network; min-of-rounds is reported.
ROUNDS = 5

MODES = ("plain", "memoized")

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval.json"


def _build_stack(spec: NetworkSpec, depth_cap: int = DEPTH_CAP) -> Tuple[RNNStack, int]:
    """The spec's recurrent stack at paper geometry, depth-capped.

    Returns ``(stack, directional_layers)``.
    """
    rng = np.random.default_rng(7)
    widths = spec.layer_input_sizes()
    if spec.bidirectional:
        pair_widths = widths[::2][: depth_cap // 2]
        maker = Bidirectional.lstm if spec.cell_type == "lstm" else Bidirectional.gru
        layers = [maker(w, spec.neurons, rng=rng) for w in pair_widths]
        return RNNStack(layers), 2 * len(layers)
    maker = LSTMLayer if spec.cell_type == "lstm" else GRULayer
    layers = [maker(w, spec.neurons, rng=rng) for w in widths[:depth_cap]]
    return RNNStack(layers), len(layers)


class _Measurement:
    """One network's interleaved plain/memoized result."""

    def __init__(self, directional: int):
        self.directional = directional
        self.seconds: Dict[str, float] = {}
        self.reuse_fraction = 0.0
        #: Every memoized round reproduced the first one bitwise.
        self.memoized_stable = True
        #: The theta=0 oracle forward equals the plain forward bitwise.
        self.oracle_equals_plain = False

    @property
    def overhead_ratio(self) -> float:
        return self.seconds["memoized"] / self.seconds["plain"]


#: network -> measurement, filled by ``test_memo_vs_plain`` and consumed
#: by the checks and the module-teardown report.
_runs: Dict[str, _Measurement] = {}


def _measure(name: str) -> _Measurement:
    spec = PAPER_NETWORKS[name]
    plain, directional = _build_stack(spec)
    inputs = np.random.default_rng(11).standard_normal((BATCH, TIMESTEPS, spec.input_size))
    memo = clone_with_shared_parameters(plain)
    stats = ReuseStats()
    apply_memoization(memo, MemoizationScheme(theta=THETA, predictor=PREDICTOR), stats)
    models = {"plain": plain, "memoized": memo}
    result = _Measurement(directional)

    def run(mode: str) -> Tuple[float, Array]:
        stats.reset()
        start = perf_counter()
        outputs = models[mode](inputs)
        return perf_counter() - start, outputs

    _, plain_out = run("plain")  # warm-up: touch caches, allocate buffers
    _, first_memo = run("memoized")
    first_reuse = (dict(stats.reused), dict(stats.total))
    result.reuse_fraction = stats.reuse_fraction()
    for i in range(ROUNDS):
        for mode in MODES if i % 2 == 0 else MODES[::-1]:
            seconds, outputs = run(mode)
            result.seconds[mode] = min(seconds, result.seconds.get(mode, seconds))
            if mode == "memoized":
                result.memoized_stable &= bool(
                    np.array_equal(outputs, first_memo)
                    and (dict(stats.reused), dict(stats.total)) == first_reuse
                )

    oracle = clone_with_shared_parameters(plain)
    apply_memoization(oracle, MemoizationScheme(theta=0.0, predictor="oracle"), ReuseStats())
    result.oracle_equals_plain = bool(np.array_equal(oracle(inputs), plain_out))
    return result


def _timing(seconds: float, directional: int) -> Dict[str, float]:
    return {
        "seconds": seconds,
        "points_per_sec": BATCH / seconds,
        "timesteps_per_sec": BATCH * TIMESTEPS * directional / seconds,
    }


@pytest.fixture(scope="module")
def eval_report():
    """Collects per-network measurements; writes BENCH_eval.json last."""
    yield _runs
    if not _runs:
        return
    networks = {}
    for name, run in _runs.items():
        spec = PAPER_NETWORKS[name]
        networks[name] = {
            "cell_type": spec.cell_type,
            "neurons": spec.neurons,
            "bidirectional": spec.bidirectional,
            "layers_paper": spec.layers,
            "layers_measured": run.directional,
            "rows": BATCH,
            "layer_timesteps": BATCH * TIMESTEPS * run.directional,
            "plain": _timing(run.seconds["plain"], run.directional),
            "memoized": _timing(run.seconds["memoized"], run.directional),
            "overhead_ratio": run.overhead_ratio,
            "reuse_fraction": run.reuse_fraction,
            "memoized_stable": run.memoized_stable,
            "oracle_equals_plain": run.oracle_equals_plain,
        }
    report = {
        "scale": "paper-geometry",
        "theta": THETA,
        "predictor": PREDICTOR,
        "batch": BATCH,
        "timesteps": TIMESTEPS,
        "rounds": ROUNDS,
        "networks": networks,
        "max_overhead_ratio": max(n["overhead_ratio"] for n in networks.values()),
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_memo_vs_plain(benchmark, eval_report, name):
    """Time the plain and memoized forwards interleaved."""
    run = _measure(name)
    eval_report[name] = run
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for mode in MODES:
        benchmark.extra_info[f"{mode}_s"] = run.seconds[mode]
    benchmark.extra_info["overhead_ratio"] = run.overhead_ratio
    assert run.memoized_stable, f"{name}: memoized rounds differ from the first"


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_modes_bitwise_equal(benchmark, eval_report, name):
    """The theta=0 oracle forward must equal the plain forward bitwise."""
    run = eval_report.get(name)
    if run is None:
        pytest.skip("test_memo_vs_plain did not run for this network")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert run.oracle_equals_plain, f"{name}: theta=0 oracle forward != plain forward"


def test_overhead_ceiling(benchmark, eval_report):
    """Each network's memoized forward stays under the pinned multiple of
    its plain forward."""
    if not eval_report:
        pytest.skip("no measurements collected")
    ceiling = float(os.environ.get("REPRO_BENCH_EVAL_MAX_OVERHEAD", "2.5"))
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ratios = {name: run.overhead_ratio for name, run in eval_report.items()}
    lines = [f"{name:12s} {ratio:5.2f}x" for name, ratio in ratios.items()]
    print("\n=== memoized / plain forward ===\n" + "\n".join(lines))
    benchmark.extra_info["overhead_ratios"] = ratios
    over = {name: ratio for name, ratio in ratios.items() if ratio > ceiling}
    assert not over, (
        f"memoized forward exceeds {ceiling}x the plain forward on {over} "
        "— see BENCH_eval.json"
    )
