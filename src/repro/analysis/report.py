"""One-shot reproduction report: every headline quantity in one document.

``generate_report`` trains (or reuses) the four benchmarks, runs the
calibration -> test -> accelerator pipeline per network, and renders a
markdown document with the Table 1 comparison, the Figure 17/19
quantities and the area story.  The CLI exposes it as
``python -m repro report``.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.accel.area import DEFAULT_AREA_MODEL
from repro.analysis.figures import render_table
from repro.analysis.sweep import DEFAULT_THETAS, end_to_end
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS
from repro.models.zoo import load_benchmark

PAPER_HEADLINES = {
    "avg_savings_percent_at_1pct": 18.5,
    "avg_reuse_percent_at_1pct": 24.2,
    "avg_speedup_at_1pct": 1.35,
}


def generate_report(
    scale: str = "bench",
    loss_target: float = 1.0,
    thetas: Sequence[float] = DEFAULT_THETAS,
    networks: Sequence[str] = BENCHMARK_NAMES,
    runner=None,
    seed: int = 0,
    shards: int = 1,
) -> str:
    """Markdown reproduction report over ``networks``.

    Args:
        scale: benchmark scale ("tiny" for a fast smoke report).
        loss_target: the accuracy-loss budget for calibration.
        thetas: threshold exploration grid.
        networks: which Table 1 networks to include.
        runner: optional :class:`repro.runner.ParallelRunner`; lets the
            report share the sweep cache with the figure benches and
            select an execution backend (serial, local process pool, or
            the multi-host work queue) — the rendered report is
            byte-identical under every backend.
        seed: benchmark construction/training seed.
        shards: per-batch evaluation shards per sweep point (results
            are bitwise identical for any value).
    """
    if not networks:
        raise ValueError("need at least one network")
    unknown = set(networks) - set(BENCHMARK_NAMES)
    if unknown:
        raise KeyError(f"unknown networks: {sorted(unknown)}")

    results = []
    for name in networks:
        bench = load_benchmark(name, scale=scale, seed=seed, trained=False)
        bench.ensure_trained()  # the Table 1 rows quote base_quality
        results.append(
            (
                bench,
                end_to_end(
                    bench,
                    loss_target,
                    thetas=thetas,
                    runner=runner,
                    shards=shards,
                ),
            )
        )

    lines: List[str] = [
        "# Reproduction report — Neuron-Level Fuzzy Memoization in RNNs",
        "",
        f"Scale: `{scale}` — loss budget: {loss_target}% — thresholds: "
        f"{list(thetas)}",
        "",
        "## Networks (Table 1)",
        "",
    ]
    rows = []
    for bench, e2e in results:
        spec = PAPER_NETWORKS[bench.name]
        rows.append(
            [
                bench.name,
                f"{spec.base_quality} {spec.quality_metric}",
                f"{bench.base_quality:.2f}",
                f"{spec.paper_reuse_percent}%",
                f"{e2e.reuse_percent:.1f}%",
            ]
        )
    lines.append(
        render_table(
            ["network", "paper base", "our base", "paper reuse", "our reuse"],
            rows,
        )
    )

    lines += ["", "## Accelerator projection (Figures 17 and 19)", ""]
    rows = [
        [
            e2e.network,
            e2e.theta,
            f"{e2e.quality_loss:.2f}",
            f"{e2e.reuse_percent:.1f}%",
            f"{e2e.energy_savings_percent:.1f}%",
            f"{e2e.speedup:.2f}x",
        ]
        for _, e2e in results
    ]
    lines.append(
        render_table(
            ["network", "theta", "test loss", "reuse", "energy savings", "speedup"],
            rows,
        )
    )

    save = float(np.mean([e.energy_savings_percent for _, e in results]))
    reuse = float(np.mean([e.reuse_percent for _, e in results]))
    speed = float(np.mean([e.speedup for _, e in results]))
    lines += [
        "",
        f"Averages: savings {save:.1f}% (paper "
        f"{PAPER_HEADLINES['avg_savings_percent_at_1pct']}%), reuse "
        f"{reuse:.1f}% (paper {PAPER_HEADLINES['avg_reuse_percent_at_1pct']}%), "
        f"speedup {speed:.2f}x (paper "
        f"{PAPER_HEADLINES['avg_speedup_at_1pct']}x).",
        "",
        "## Area (§5)",
        "",
        f"E-PUR {DEFAULT_AREA_MODEL.baseline_mm2:.1f} mm² -> E-PUR+BM "
        f"{DEFAULT_AREA_MODEL.memoized_mm2:.1f} mm² "
        f"({100 * DEFAULT_AREA_MODEL.overhead_fraction:.1f}% overhead).",
    ]
    return "\n".join(lines)
