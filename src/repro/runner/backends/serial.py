"""In-process serial execution: the reference backend."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.models.benchmark import Benchmark
from repro.runner.backends.base import ExecutionBackend
from repro.runner.evaluate import evaluate_payloads


class SerialBackend(ExecutionBackend):
    """Evaluate every payload in this process.

    The whole list goes to :func:`~repro.runner.evaluate.evaluate_payloads`,
    so a sweep's points on one split and shard run as one memoized pass.
    The reference every other backend must match.  Accepts the
    live-``benchmark`` hint, so a caller that already holds the trained
    model never pays a zoo rebuild.
    """

    name = "serial"

    def execute(
        self,
        payloads: Sequence[Mapping[str, object]],
        benchmark: Optional[Benchmark] = None,
    ) -> List[Dict[str, object]]:
        return evaluate_payloads(payloads, benchmark)
