"""Sweep execution subsystem: job specs, cache, backends, work queue.

The experiment layer (:mod:`repro.analysis`, the CLI, the figure
benches) describes work as :class:`SweepJob` specs and hands them to a
:class:`ParallelRunner`, which resolves points from the content-
addressed :class:`ResultCache` and hands cache misses to a pluggable
:class:`~repro.runner.backends.ExecutionBackend`:

- :class:`SerialBackend` — in-process (the bitwise reference path);
- :class:`ProcessBackend` — a persistent local process pool;
- :class:`QueueBackend` — a file-based multi-host :class:`WorkQueue`
  drained by ``repro worker`` processes, with lease-based crash
  recovery;
- :class:`HttpBackend` — the same queue protocol spoken over HTTP to a
  ``repro coordinator`` (:mod:`repro.runner.transport`), so hosts that
  share no filesystem can join a sweep.

The unit of work is one shard of one point: every point payload names
its ``(shard_index, shard_count)``, and the whole point is shard
``(0, 1)``.  ``run(..., shards=N)`` splits each point per-batch; every
result carries a mergeable metric accumulator, and the shards reduce to
the whole-point result.  The unit of evaluation is a group of points:
:func:`evaluate_payloads` runs the points of one split and shard that
differ only in ``theta`` as one memoized pass.  Serial, parallel,
queued, cached, sharded and grouped paths all produce identical
discrete results.
"""

from repro.runner.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    HttpBackend,
    ProcessBackend,
    QueueBackend,
    QueueDrainTimeout,
    QueueTaskFailed,
    SerialBackend,
    make_backend,
)
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.evaluate import (
    evaluate_payloads,
    evaluate_point,
    evaluate_task,
)
from repro.runner.job import (
    CACHE_VERSION,
    DEFAULT_THETAS,
    SweepJob,
    job_from_payload,
    payload_key,
    result_from_payload,
    result_to_payload,
    scheme_from_payload,
)
from repro.runner.parallel import ParallelRunner, RunReport
from repro.runner.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_QUEUE_DIR,
    Task,
    TaskQueue,
    WorkQueue,
    default_owner,
    drain,
    lease_owner,
)
from repro.runner.transport import (
    DEFAULT_COORDINATOR_PORT,
    CoordinatorAuthError,
    CoordinatorServer,
    RemoteWorkQueue,
    TransportError,
    read_token_file,
)

__all__ = [
    "BACKEND_NAMES",
    "CACHE_VERSION",
    "CoordinatorAuthError",
    "CoordinatorServer",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_COORDINATOR_PORT",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_QUEUE_DIR",
    "DEFAULT_THETAS",
    "ExecutionBackend",
    "HttpBackend",
    "ParallelRunner",
    "ProcessBackend",
    "QueueBackend",
    "QueueDrainTimeout",
    "QueueTaskFailed",
    "RemoteWorkQueue",
    "ResultCache",
    "RunReport",
    "SerialBackend",
    "SweepJob",
    "Task",
    "TaskQueue",
    "TransportError",
    "WorkQueue",
    "default_owner",
    "drain",
    "lease_owner",
    "read_token_file",
    "evaluate_payloads",
    "evaluate_point",
    "evaluate_task",
    "job_from_payload",
    "make_backend",
    "payload_key",
    "result_from_payload",
    "result_to_payload",
    "scheme_from_payload",
]
