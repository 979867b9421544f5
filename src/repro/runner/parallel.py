"""Sweep execution: cache resolution + pluggable backend fan-out.

The paper's methodology is embarrassingly parallel — every (network,
predictor, theta) evaluation is independent — so :class:`ParallelRunner`
treats a :class:`~repro.runner.job.SweepJob` as a work-queue of point
payloads, resolves as many as possible from the
:class:`~repro.runner.cache.ResultCache`, and hands the misses to an
:class:`~repro.runner.backends.ExecutionBackend`: serial in-process,
a local process pool, or the file-based multi-host work queue.  All
backends evaluate through the same
:func:`~repro.runner.evaluate.evaluate_payloads` path, so their
discrete results are identical to the serial baseline's.

The unit of work is one shard of one point.  With ``shards=1`` that is
the whole point, shard ``(0, 1)``, whose key is the point key.  With
``shards > 1`` each point is split *within* the test/calibration batch:
its shards are cached under their own keys, and a reduce step merges
them (:func:`repro.models.benchmark.merge_shard_results`) into the
bitwise-identical whole-point result, which is also stored under the
point key, so sharded and unsharded runs share the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.calibration import ThresholdSweep
from repro.models.benchmark import Benchmark, MemoizedResult, merge_shard_results
from repro.models.specs import PAPER_NETWORKS
from repro.runner.backends import ExecutionBackend, ProcessBackend, SerialBackend
from repro.runner.evaluate import evaluate_payloads, evaluate_point
from repro.runner.job import SweepJob, result_from_payload, result_to_payload

__all__ = [
    "ParallelRunner",
    "RunReport",
    "evaluate_payloads",
    "evaluate_point",
]


@dataclass(frozen=True)
class RunReport:
    """Accounting for one :meth:`ParallelRunner.run` call."""

    hits: int = 0
    misses: int = 0
    workers: int = 1
    backend: str = "serial"

    @property
    def evaluated(self) -> int:
        """Points actually (re-)evaluated — zero on a warm cache."""
        return self.misses


class ParallelRunner:
    """Executes sweep jobs point-by-point, with caching and fan-out.

    The execution strategy is a pluggable
    :class:`~repro.runner.backends.ExecutionBackend`.  By default the
    runner builds its own: :class:`SerialBackend` for ``jobs=1``,
    :class:`ProcessBackend` otherwise (the historical behaviour); pass
    ``backend=`` to supply any other strategy, e.g. a
    :class:`~repro.runner.backends.QueueBackend` that ships payloads to
    worker processes on other hosts.  The runner owns whatever backend
    it ends up with: :meth:`close` (or exiting the context manager)
    releases its resources.

    Args:
        jobs: worker processes for the default process backend; ``1``
            selects the serial backend.  Ignored when ``backend`` is
            given.
        cache: optional :class:`ResultCache`; ``None`` disables caching.
        backend: optional explicit execution backend.

    Attributes:
        last_report: :class:`RunReport` for the most recent ``run``.
        hits / misses: cumulative counters across the runner's lifetime.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache=None,
        backend: Optional[ExecutionBackend] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if backend is None:
            backend = ProcessBackend(jobs) if jobs > 1 else SerialBackend()
        self.backend = backend
        self.jobs = getattr(backend, "jobs", int(jobs))
        self.cache = cache
        self.last_report = RunReport(backend=backend.name)
        self.hits = 0
        self.misses = 0

    def close(self) -> None:
        """Release the backend's resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        job: SweepJob,
        benchmark: Optional[Benchmark] = None,
        shards: int = 1,
    ) -> List[MemoizedResult]:
        """Evaluate every theta of ``job``; results in theta order.

        Args:
            job: the sweep spec.
            benchmark: optional live instance to evaluate on when
                running in-process (saves a zoo rebuild); it must match
                the job's identity.  Distributed backends ignore it —
                their workers always rebuild from the spec.
            shards: split each point's evaluation batch into this many
                shards (``1`` evaluates each point as its single shard).
                Results are bitwise identical for any value.

        Cache protocol: a point resolved from its point key is a single
        hit.  Otherwise each of its shards resolves or evaluates under
        its own key (counted individually in the report), and with
        ``shards > 1`` the merged result is written back under the
        point key.  With ``shards=1`` the shard key *is* the point key.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if benchmark is not None:
            self._check_benchmark(job, benchmark)
        results: List[Optional[MemoizedResult]] = [None] * len(job.thetas)
        partials: Dict[int, List[Optional[MemoizedResult]]] = {}
        pending: List[Tuple[int, int]] = []
        hits = 0

        for t, theta in enumerate(job.thetas):
            results[t] = self._cached_result(job.point_key(theta))
            if results[t] is not None:
                hits += 1
                continue
            slots: List[Optional[MemoizedResult]] = [None] * shards
            for s in range(shards):
                if shards > 1:
                    slots[s] = self._cached_result(
                        job.point_key(theta, (s, shards))
                    )
                if slots[s] is None:
                    pending.append((t, s))
                else:
                    hits += 1
            partials[t] = slots

        if pending:
            outputs = self.backend.execute(
                [job.point_payload(job.thetas[t], (s, shards)) for t, s in pending],
                benchmark=benchmark,
            )
            for (t, s), output in zip(pending, outputs):
                partials[t][s] = result_from_payload(output)
                if self.cache is not None:
                    self.cache.put(job.point_key(job.thetas[t], (s, shards)), output)

        higher_is_better = PAPER_NETWORKS[job.network].higher_is_better
        for t, slots in partials.items():
            if shards == 1:
                results[t] = slots[0]
                continue
            results[t] = merge_shard_results(slots, higher_is_better)
            if self.cache is not None:
                self.cache.put(
                    job.point_key(job.thetas[t]), result_to_payload(results[t])
                )

        self._account(hits=hits, misses=len(pending))
        return [result for result in results if result is not None]

    def sweep(
        self,
        job: SweepJob,
        benchmark: Optional[Benchmark] = None,
        shards: int = 1,
    ) -> ThresholdSweep:
        """Run ``job`` and fold the points into a :class:`ThresholdSweep`."""
        sweep = ThresholdSweep()
        results = self.run(job, benchmark=benchmark, shards=shards)
        for theta, result in zip(job.thetas, results):
            sweep.add(theta, result.quality_loss, result.reuse_fraction)
        return sweep

    # -- internals ----------------------------------------------------------

    def _account(self, hits: int, misses: int) -> None:
        self.last_report = RunReport(
            hits=hits,
            misses=misses,
            workers=self.backend.workers_for(misses),
            backend=self.backend.name,
        )
        self.hits += hits
        self.misses += misses

    def _cached_result(self, key: str) -> Optional[MemoizedResult]:
        """Cache lookup that treats stale/corrupt payloads as misses."""
        cached = self.cache.get(key) if self.cache is not None else None
        if cached is None:
            return None
        try:
            return result_from_payload(cached)
        except (KeyError, TypeError, ValueError):
            return None

    @staticmethod
    def _check_benchmark(job: SweepJob, benchmark: Benchmark) -> None:
        identity = (benchmark.name, benchmark.scale, benchmark.seed)
        expected = (job.network, job.scale, job.seed)
        if identity != expected:
            raise ValueError(
                f"benchmark identity {identity} does not match job "
                f"spec {expected}; cached results would be mislabelled"
            )
