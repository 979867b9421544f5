"""Pluggable execution backends for the sweep runner.

Four strategies behind one :class:`ExecutionBackend` contract:

- :class:`SerialBackend` — in-process, one payload at a time (the
  bitwise reference).
- :class:`ProcessBackend` — a persistent local ``ProcessPoolExecutor``.
- :class:`QueueBackend` — a file-based multi-host work queue drained by
  ``repro worker`` processes, with lease-based crash recovery.
- :class:`HttpBackend` — the same work-queue protocol spoken to a
  ``repro coordinator`` over HTTP, for hosts that share no filesystem.

All four produce bitwise-identical results for any jobs/shards
combination; ``tests/test_backends.py`` enforces it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.runner.backends.base import ExecutionBackend
from repro.runner.backends.http import HttpBackend
from repro.runner.backends.process import ProcessBackend
from repro.runner.backends.queue import (
    QueueBackend,
    QueueDrainTimeout,
    QueueTaskFailed,
)
from repro.runner.backends.serial import SerialBackend
from repro.runner.queue import DEFAULT_LEASE_TTL, DEFAULT_QUEUE_DIR

#: CLI names of the available backends.
BACKEND_NAMES = ("serial", "process", "queue", "http")


def make_backend(
    name: str,
    jobs: int = 1,
    queue_dir: Union[str, Path] = DEFAULT_QUEUE_DIR,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    drain: bool = True,
    timeout: Optional[float] = None,
    reuse_results: bool = True,
    coordinator: Optional[str] = None,
    token: Optional[str] = None,
) -> ExecutionBackend:
    """Build a backend from CLI/environment-style knobs.

    ``jobs`` only parameterises the process backend; ``queue_dir`` /
    ``lease_ttl`` only the queue backend; ``coordinator`` / ``token``
    only the http backend; ``drain`` / ``timeout`` / ``reuse_results``
    the queue and http backends.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(jobs=jobs)
    if name == "queue":
        return QueueBackend(
            queue_dir,
            lease_ttl=lease_ttl,
            drain=drain,
            timeout=timeout,
            reuse_results=reuse_results,
        )
    if name == "http":
        if not coordinator:
            raise ValueError(
                "the http backend needs a coordinator URL "
                "(--coordinator http://HOST:PORT)"
            )
        return HttpBackend(
            coordinator,
            token=token,
            drain=drain,
            timeout=timeout,
            reuse_results=reuse_results,
        )
    raise ValueError(
        f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
    )


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "HttpBackend",
    "ProcessBackend",
    "QueueBackend",
    "QueueDrainTimeout",
    "QueueTaskFailed",
    "SerialBackend",
    "make_backend",
]
