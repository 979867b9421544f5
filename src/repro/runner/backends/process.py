"""Process-pool execution: fan payloads across local worker processes."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence

from repro.models.benchmark import Benchmark
from repro.runner.backends.base import ExecutionBackend
from repro.runner.backends.serial import SerialBackend
from repro.runner.evaluate import evaluate_payloads


def contiguous_chunks(
    items: Sequence[Mapping[str, object]], count: int
) -> List[List[Mapping[str, object]]]:
    """Split ``items`` into ``count`` contiguous runs whose sizes differ
    by at most one (``np.array_split`` semantics)."""
    size, extra = divmod(len(items), count)
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return [list(items[a:b]) for a, b in zip(bounds, bounds[1:])]


class ProcessBackend(ExecutionBackend):
    """Fan payloads out over a lazily created ``ProcessPoolExecutor``.

    A batch is cut into ``min(jobs, len(payloads))`` contiguous chunks,
    one :func:`~repro.runner.evaluate.evaluate_payloads` call each, so a
    sweep still fans out over ``jobs`` workers while the points that
    share a chunk share a memoized pass.

    The pool is created on the first multi-payload batch and kept alive
    for the backend's lifetime: each worker's in-process zoo cache then
    amortises benchmark training across successive batches (a
    pool-per-call design would retrain the same networks every time).
    Single-payload batches fall back to in-process serial execution —
    the pool round-trip would cost more than it saves — which also lets
    them use the live-``benchmark`` hint.
    """

    name = "process"

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        self._serial = SerialBackend()
        self._pool: Optional[ProcessPoolExecutor] = None

    def execute(
        self,
        payloads: Sequence[Mapping[str, object]],
        benchmark: Optional[Benchmark] = None,
    ) -> List[Dict[str, object]]:
        if self.jobs == 1 or len(payloads) <= 1:
            return self._serial.execute(payloads, benchmark)
        chunks = contiguous_chunks(payloads, min(self.jobs, len(payloads)))
        return [
            result
            for results in self._get_pool().map(evaluate_payloads, chunks)
            for result in results
        ]

    def workers_for(self, tasks: int) -> int:
        if self.jobs == 1 or tasks <= 1:
            return 1
        return min(self.jobs, tasks)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool
