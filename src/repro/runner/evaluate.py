"""Payload evaluation: the single execution path shared by all backends.

Every execution backend — serial in-process, worker processes, queue
workers on other hosts — funnels through :func:`evaluate_point`: rebuild
the benchmark from the payload's ``(network, scale, seed)`` identity
(deterministic zoo seeding, cached per process), evaluate the shard the
payload names, and return the JSON-safe result payload that the
content-addressed cache stores.  Because there is exactly one evaluation
path, cached, serial, process-parallel, sharded and multi-host results
can never drift apart.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.models.benchmark import Benchmark, MemoizedResult
from repro.models.zoo import load_benchmark
from repro.runner.job import (
    job_from_payload,
    result_to_payload,
    scheme_from_payload,
)


def evaluate_payload(
    payload: Mapping[str, object], benchmark: Optional[Benchmark] = None
) -> MemoizedResult:
    """Evaluate the shard a point payload names, optionally on a live
    benchmark."""
    if benchmark is None:
        benchmark = load_benchmark(
            str(payload["network"]),
            scale=str(payload["scale"]),
            seed=int(payload["seed"]),
            trained=False,
        )
    return benchmark.evaluate_memoized(
        scheme_from_payload(payload),
        calibration=bool(payload["calibration"]),
        shard=(int(payload["shard_index"]), int(payload["shard_count"])),
    )


def evaluate_point(payload: Mapping[str, object]) -> Dict[str, object]:
    """Worker entry point: evaluate one point payload's shard.

    A pure function of the payload — the zoo rebuilds and (lazily)
    trains the benchmark from ``(network, scale, seed)`` with fully
    seeded numpy, so any process on any host computes the same result.
    Returns the JSON-safe result payload (what the cache stores), which
    carries its metric-accumulator state and ``base_quality``.
    """
    return result_to_payload(evaluate_payload(payload))


def evaluate_task(payload: Mapping[str, object]) -> Dict[str, object]:
    """Validate, then evaluate, one *queue* task payload.

    Queue payloads arrive from other processes — possibly other hosts
    running other code versions — so unlike the in-process paths they
    are validated first: :func:`~repro.runner.job.job_from_payload`
    rejects payloads written under a different ``CACHE_VERSION`` and
    payloads that are not in canonical form (evaluating those would
    store a result under a content-address that lies about its
    semantics).  The raised ``ValueError`` quarantines the task instead
    of computing garbage.
    """
    job_from_payload(payload)
    return evaluate_point(payload)
