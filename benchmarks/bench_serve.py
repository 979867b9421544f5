"""Online serving latency/throughput trajectory of ``repro serve``.

Starts an in-process inference server over the tiny IMDB zoo model and
drives it with the deterministic load generator at several thresholds —
one fresh server per threshold, so the reuse counters are attributable.
Every run verifies the served predictions bitwise against the offline
batch path (``--verify`` semantics of ``repro loadgen``); the bench
fails on any mismatch or transport error.

Results are written to ``BENCH_serve.json`` at the repo root so the
serving trajectory is pinned in-tree: per threshold, the client-side
exact latency percentiles (p50/p95/p99), request and row throughput,
and the server's reuse fraction.  A second sweep holds theta fixed and
varies only the replica-pool size (1, 2 and 4 replicas); the
``serve_report`` teardown prints its latency and throughput per pool
size, with how many forwards coalesced requests.  CI re-runs this bench
in the ``smoke-serve`` job and uploads the file as an artifact.

The latency numbers are client-observed over loopback HTTP with
``CONCURRENCY`` threads of clients, so they include queueing — the
quantity a deployment would see, not bare model-forward time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

import pytest

from repro.core.engine import MemoizationScheme
from repro.models.zoo import build_benchmark
from repro.serve import InferenceServer, ServeState, run_loadgen

NETWORK = "imdb"
SCALE = "tiny"
SEED = 0

#: Thresholds swept (low -> high reuse); the trajectory test asserts the
#: reuse fraction is non-decreasing along this grid.
THETAS = (0.05, 0.2, 0.5)

REQUESTS = 24
CONCURRENCY = 4
BATCH = 4

#: Replica sweep: pool sizes served at a fixed threshold.
REPLICA_POINTS = (1, 2, 4)
REPLICA_THETA = 0.2
REPLICA_REQUESTS = 48
REPLICA_CONCURRENCY = 8
REPLICA_BATCH = 2

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: theta -> summary point, filled by the parametrised bench and written
#: to BENCH_serve.json at module teardown.
_points: Dict[float, Dict[str, object]] = {}

#: replicas -> summary point for the replica sweep.
_replica_points: Dict[int, Dict[str, object]] = {}


@pytest.fixture(scope="module")
def trained_benchmark():
    # A fresh (never cached) instance: the server wraps its model, which
    # must not collide with other benches sharing the zoo cache.
    bench = build_benchmark(NETWORK, scale=SCALE, seed=SEED)
    bench.ensure_trained()
    return bench


@pytest.fixture(scope="module")
def serve_report():
    """Collects per-theta loadgen summaries; writes BENCH_serve.json and
    prints the replica sweep."""
    yield _points
    if _replica_points:
        lines = [
            f"replicas {replicas}: p50 "
            f"{point['latency_ms']['p50']:7.2f} ms  p95 "
            f"{point['latency_ms']['p95']:7.2f} ms  "
            f"{point['req_per_s']:6.1f} req/s  "
            f"({point['coalesced_batches']}/{point['batches']} batches coalesced)"
            for replicas, point in sorted(_replica_points.items())
        ]
        print("\n=== serving throughput vs replica count ===\n" + "\n".join(lines))
    if not _points:
        return
    report = {
        "network": NETWORK,
        "scale": SCALE,
        "seed": SEED,
        "requests": REQUESTS,
        "concurrency": CONCURRENCY,
        "batch": BATCH,
        "points": {str(theta): _points[theta] for theta in sorted(_points)},
        "replica_sweep": {
            "theta": REPLICA_THETA,
            "requests": REPLICA_REQUESTS,
            "concurrency": REPLICA_CONCURRENCY,
            "batch": REPLICA_BATCH,
            "points": {
                str(replicas): _replica_points[replicas]
                for replicas in sorted(_replica_points)
            },
        },
    }
    RESULTS_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("theta", THETAS)
def test_serve_point(benchmark, serve_report, trained_benchmark, theta):
    """One threshold: serve, load, verify bitwise, record the summary."""
    state = ServeState(trained_benchmark, MemoizationScheme(theta=theta))
    server = InferenceServer(state, quiet=True)
    server.serve_in_thread()
    summaries = []
    try:

        def run():
            summaries.append(
                run_loadgen(
                    server.url,
                    NETWORK,
                    scale=SCALE,
                    seed=SEED,
                    requests=REQUESTS,
                    concurrency=CONCURRENCY,
                    batch=BATCH,
                    verify=True,
                )
            )

        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        server.stop()
    summary = summaries[-1]
    assert summary["errors"] == [], summary["errors"]
    assert summary["completed"] == REQUESTS
    assert summary["verify"]["mismatches"] == 0, summary["verify"]["examples"]
    latency = summary["latency_ms"]
    serve_report[theta] = {
        "theta": theta,
        "latency_ms": latency,
        "req_per_s": summary["req_per_s"],
        "rows_per_s": summary["rows_per_s"],
        "reuse_fraction": summary["reuse"]["overall_fraction"],
        "verified_rows": summary["verify"]["checked"],
    }
    benchmark.extra_info["p50_ms"] = latency["p50"]
    benchmark.extra_info["req_per_s"] = summary["req_per_s"]
    benchmark.extra_info["reuse_fraction"] = summary["reuse"]["overall_fraction"]


@pytest.mark.parametrize("replicas", REPLICA_POINTS)
def test_replica_point(benchmark, serve_report, trained_benchmark, replicas):
    """One pool size at fixed theta: serve, load, verify, record."""
    del serve_report  # ordering only: report writes after all points run
    state = ServeState(
        trained_benchmark,
        MemoizationScheme(theta=REPLICA_THETA),
        replicas=replicas,
    )
    server = InferenceServer(state, quiet=True)
    server.serve_in_thread()
    summaries = []
    try:

        def run():
            summaries.append(
                run_loadgen(
                    server.url,
                    NETWORK,
                    scale=SCALE,
                    seed=SEED,
                    requests=REPLICA_REQUESTS,
                    concurrency=REPLICA_CONCURRENCY,
                    batch=REPLICA_BATCH,
                    verify=True,
                )
            )

        benchmark.pedantic(run, rounds=1, iterations=1)
    finally:
        server.stop()
    summary = summaries[-1]
    assert summary["errors"] == [], summary["errors"]
    assert summary["completed"] == REPLICA_REQUESTS
    assert summary["verify"]["mismatches"] == 0, summary["verify"]["examples"]
    latency = summary["latency_ms"]
    _replica_points[replicas] = {
        "replicas": replicas,
        "latency_ms": latency,
        "req_per_s": summary["req_per_s"],
        "rows_per_s": summary["rows_per_s"],
        "reuse_fraction": summary["reuse"]["overall_fraction"],
        "coalesced_batches": summary["coalesce"]["coalesced_batches"],
        "batches": summary["coalesce"]["batches"],
        "verified_rows": summary["verify"]["checked"],
    }
    benchmark.extra_info["p95_ms"] = latency["p95"]
    benchmark.extra_info["req_per_s"] = summary["req_per_s"]


def test_reuse_trajectory(benchmark, serve_report):
    """Reuse must be non-decreasing in theta across the served points."""
    if len(serve_report) < 2:
        pytest.skip("per-theta serving points did not run")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    thetas = sorted(serve_report)
    fractions = [serve_report[theta]["reuse_fraction"] for theta in thetas]
    lines = [
        f"theta {theta:4.2f}: p50 {serve_report[theta]['latency_ms']['p50']:7.2f} ms"
        f"  p99 {serve_report[theta]['latency_ms']['p99']:7.2f} ms"
        f"  {serve_report[theta]['req_per_s']:6.1f} req/s"
        f"  reuse {100 * fraction:5.1f}%"
        for theta, fraction in zip(thetas, fractions)
    ]
    print("\n=== serving latency/reuse vs theta ===\n" + "\n".join(lines))
    assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:])), (
        f"reuse not monotone in theta: {dict(zip(thetas, fractions))}"
    )
