"""HTTP transport: the work queue served over a socket, no mount needed.

The file-based :class:`~repro.runner.queue.WorkQueue` coordinates hosts
through a shared filesystem; this package removes that requirement by
putting one HTTP coordinator in front of the queue directory:

- :class:`CoordinatorServer` (``repro coordinator``) — a stdlib-only
  ``ThreadingHTTPServer`` that owns the queue directory and exposes the
  :class:`~repro.runner.queue.TaskQueue` contract as REST endpoints
  (``claim`` / ``extend`` / ``complete`` / ``fail`` / ``stats``, the
  result store's ``put`` / ``discard_many``, and the batched
  ``batch/submit`` / ``batch/poll`` that answer a whole sweep's poll
  tick in one round trip), guarded by an optional shared token, with
  gzip on request and reply bodies of 1 KiB or more.
- :class:`RemoteWorkQueue` (``repro worker --coordinator URL``,
  ``--backend http``) — a client implementing the same
  :class:`~repro.runner.queue.TaskQueue` contract against that URL over
  kept-alive connections (one per thread), with bounded
  exponential-backoff retries so a coordinator restart mid-sweep is
  survived, not fatal.

The topology mirrors the paper's distributed DAQ: many dumb readout
workers, one event builder.  Because both sides speak the exact
interface of the file queue, every guarantee the queue suite proves —
atomic claims, heartbeat leases, expiry re-queueing, sticky poison
quarantine, bitwise-identical results — holds over the network too.
"""

from repro.runner.transport.client import (
    CoordinatorAuthError,
    RemoteWorkQueue,
    TransportError,
)
from repro.runner.transport.server import (
    DEFAULT_COORDINATOR_PORT,
    CoordinatorServer,
    read_token_file,
)

__all__ = [
    "CoordinatorAuthError",
    "CoordinatorServer",
    "DEFAULT_COORDINATOR_PORT",
    "RemoteWorkQueue",
    "TransportError",
    "read_token_file",
]
