"""Payload evaluation: the single execution path shared by all backends.

Every execution backend — serial in-process, worker processes, queue
workers on other hosts — funnels through :func:`evaluate_payloads`:
rebuild the benchmark from the payloads' ``(network, scale, seed)``
identity (deterministic zoo seeding, cached per process), evaluate the
shards the payloads name, and return the JSON-safe result payloads that
the content-addressed cache stores.  :func:`evaluate_point` is its
one-payload case, which queue and HTTP workers call on the one task
they claim.

The unit of work is one point; the unit of evaluation is a group of
points.  Payloads that are equal in every field but ``theta`` — a
sweep's points on one split and shard — evaluate as one group, in one
memoized pass over their rows tiled once per point
(:meth:`~repro.models.benchmark.Benchmark.evaluate_memoized_many`).
Each point still gets its own result, equal to evaluating it alone, so
cached, serial, process-parallel, sharded and multi-host results agree
however the points were grouped.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.models.benchmark import Benchmark, MemoizedResult
from repro.models.zoo import load_benchmark
from repro.runner.job import (
    job_from_payload,
    payload_key,
    result_to_payload,
    scheme_from_payload,
)


def _evaluate_group(
    payloads: Sequence[Mapping[str, object]], benchmark: Optional[Benchmark]
) -> List[MemoizedResult]:
    """Evaluate payloads that differ only in ``theta`` in one pass."""
    first = payloads[0]
    if benchmark is None:
        benchmark = load_benchmark(
            str(first["network"]),
            scale=str(first["scale"]),
            seed=int(first["seed"]),
            trained=False,
        )
    schemes = [scheme_from_payload(payload) for payload in payloads]
    calibration = bool(first["calibration"])
    shard = (int(first["shard_index"]), int(first["shard_count"]))
    # A lone point takes the one-scheme entry point, the evaluation
    # that timing harnesses wrap.
    if len(schemes) == 1:
        return [benchmark.evaluate_memoized(schemes[0], calibration, shard)]
    return benchmark.evaluate_memoized_many(schemes, calibration, shard)


def evaluate_payloads(
    payloads: Sequence[Mapping[str, object]],
    benchmark: Optional[Benchmark] = None,
) -> List[Dict[str, object]]:
    """Evaluate point payloads, grouped; result payloads in input order.

    Payloads equal in every field but ``theta`` form one group, in order
    of first appearance, and each group is one memoized pass.  A pure
    function of the payloads — the zoo rebuilds and (lazily) trains the
    benchmark from ``(network, scale, seed)`` with fully seeded numpy,
    so any process on any host computes the same results.  Each result
    payload carries its metric-accumulator state and ``base_quality``.

    ``benchmark`` is an optional live instance matching the payloads'
    identity, which saves a zoo rebuild.
    """
    groups: Dict[str, List[int]] = {}
    for position, payload in enumerate(payloads):
        groups.setdefault(payload_key({**payload, "theta": None}), []).append(position)
    results: List[Dict[str, object]] = [{} for _ in payloads]
    for positions in groups.values():
        members = [payloads[position] for position in positions]
        for position, result in zip(positions, _evaluate_group(members, benchmark)):
            results[position] = result_to_payload(result)
    return results


def evaluate_point(payload: Mapping[str, object]) -> Dict[str, object]:
    """Evaluate one point payload's shard: :func:`evaluate_payloads`'s
    one-payload case."""
    return evaluate_payloads([payload])[0]


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
