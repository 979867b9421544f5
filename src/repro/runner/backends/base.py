"""The execution-backend contract shared by every execution strategy.

A backend answers exactly one question: *given these job payloads, get
me their result payloads, in order*.  Everything else — cache lookups,
shard fan-out and merging, report accounting — stays in
:class:`~repro.runner.parallel.ParallelRunner`, so adding a transport
(threads, a remote RPC pool, a cloud batch service) means implementing
one method.  All backends evaluate through
:func:`repro.runner.evaluate.evaluate_payloads`, the single evaluation
path, which may group a batch's points into shared memoized passes.
Every backend therefore returns the same discrete results — quality,
quality loss and per-(layer, gate) reuse counts — as every other,
though a row's floats may differ in their last bits with the batch it
rides in.  ``tests/test_backends.py`` pins backend equivalence, and
``tests/test_stacked_eval.py`` pins grouped points to points evaluated
alone.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Mapping, Optional, Sequence

from repro.models.benchmark import Benchmark


class ExecutionBackend(abc.ABC):
    """Strategy interface: evaluate job payloads, somewhere, in order."""

    #: Short identifier used by the CLI (``--backend NAME``) and reports.
    name: str = "abstract"

    @abc.abstractmethod
    def execute(
        self,
        payloads: Sequence[Mapping[str, object]],
        benchmark: Optional[Benchmark] = None,
    ) -> List[Dict[str, object]]:
        """Evaluate every payload; result payloads in submission order.

        ``benchmark`` is an optional live instance matching the
        payloads' identity — purely an optimisation hint for in-process
        execution (skips a zoo rebuild); distributed backends ignore it.
        """

    def workers_for(self, tasks: int) -> int:
        """How many workers a batch of ``tasks`` payloads would occupy."""
        del tasks
        return 1

    def close(self) -> None:
        """Release held resources (idempotent); the default holds none."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
