"""The HTTP coordinator: one ``WorkQueue`` served to the whole fleet.

``repro coordinator`` wraps the queue *directory* exactly once — on the
coordinator host — and serves the :class:`~repro.runner.queue.TaskQueue`
contract as small JSON-over-POST endpoints (stdlib
``ThreadingHTTPServer``; no third-party dependencies).  Queue state
stays on disk in the ordinary ``pending/ active/ failed/ results/``
layout, so the coordinator is **stateless across restarts**: kill it
mid-sweep, start a new one on the same directory, and every pending
task, live lease and stored result is still there.  Workers' bounded
retries (see :class:`~repro.runner.transport.client.RemoteWorkQueue`)
ride out the gap.

Endpoints (all under ``/api/v1``; request and response bodies are JSON):

==========================  ====  =============================================
``/stats``                  GET   queue counters, lease TTL, live lease owners
``/health``                 GET   protocol version, queue-dir writability
``/events``                 GET   the structured event ring
``/claim``                  POST  ``{worker}`` -> ``{task_id, payload, lease}``
                                  | ``{task: null}``
``/extend``                 POST  ``{task_id, lease}`` heartbeat
``/complete``               POST  ``{task_id, lease}`` release
``/fail``                   POST  ``{task_id, lease, error}`` sticky quarantine
``/requeue``                POST  expire dead leases -> ``{requeued}``
``/results/put``            POST  ``{key, result}``
``/results/discard_many``   POST  ``{keys: [...]}``
``/batch/submit``           POST  ``{payloads: [...]}`` -> ``{task_ids: [...]}``
``/batch/poll``             POST  ``{task_ids: [...]}`` ->
                                  ``{tasks: {id: {result, failed, error,
                                  lease_live}}}``
==========================  ====  =============================================

plus ``GET /metrics.prom`` (Prometheus text).  That is the whole of
protocol 2, the only wire the coordinator speaks.  Submissions and
status polls are batched, so a submitter tick over an N-point sweep
costs one ``batch/poll`` round trip; a worker stores its result with
``results/put`` and then releases the lease with ``complete``.

The generic HTTP machinery — Bearer-token auth, capped body reads,
transparent gzip on requests and replies, route/counter bookkeeping —
is shared with ``repro serve`` and lives in
:mod:`repro.runner.transport.http_common`.  Queue concurrency needs no
locks: the handler threads hit the same atomic-rename filesystem
protocol that already arbitrates between whole *processes* on a shared
mount.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, Optional, Union

from repro.obs.prom import PROM_CONTENT_TYPE, render
from repro.runner.queue import WorkQueue, lease_owner
from repro.runner.transport.http_common import (
    GZIP_MIN_BYTES,
    MAX_BODY_BYTES,
    PROTOCOL_VERSION,
    JsonApiHandler,
    JsonApiServer,
    RawReply,
    RequestError,
    read_token_file,
)

__all__ = [
    "CoordinatorServer",
    "CoordinatorHandler",
    "DEFAULT_COORDINATOR_PORT",
    "MAX_BODY_BYTES",
    "GZIP_MIN_BYTES",
    "PROTOCOL_VERSION",
    "MAX_BATCH_POLL_IDS",
    "read_token_file",
]

#: Default coordinator port (``repro coordinator --port``).
DEFAULT_COORDINATOR_PORT = 8642

#: Hard cap on items per batch request (for 64-hex ids: ~640 KB of
#: body).  Clients chunk far below this; the cap stops one request
#: from pinning a handler thread on an unbounded loop.
MAX_BATCH_POLL_IDS = 10_000

_HEX_DIGITS = set("0123456789abcdef")
_LEASE_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_"
)


def _valid_key(key: object) -> str:
    """A task id / result key: exactly the sha256 hex a payload digests to."""
    if (
        not isinstance(key, str)
        or len(key) != 64
        or not set(key) <= _HEX_DIGITS
    ):
        raise RequestError(400, f"invalid task id {key!r}")
    return key


def _valid_lease(lease: object) -> str:
    """A lease nonce as minted by the queue: short, path-safe, no dots."""
    if (
        not isinstance(lease, str)
        or not 0 < len(lease) <= 128
        or not set(lease) <= _LEASE_CHARS
    ):
        raise RequestError(400, f"invalid lease {lease!r}")
    return lease


def _valid_worker(worker: object) -> str:
    """A worker tag safe to embed in lease filenames ('' is anonymous).

    The tag flows into ``_nonce(worker)`` and from there into
    ``active/`` (and possibly ``failed/``) file names, so it gets the
    same character discipline as a lease nonce — a JSON object, a
    path-separator or whitespace is a 400, not a filename.
    """
    if worker is None:
        return ""
    if (
        not isinstance(worker, str)
        or len(worker) > 64
        or not set(worker) <= _LEASE_CHARS
    ):
        raise RequestError(400, f"invalid worker name {worker!r}")
    return worker


class _OwnerThroughput:
    """Per-owner completion/failure accounting with a rolling rate.

    ``record`` is called from handler threads on every ``/complete`` and
    ``/fail``; ``snapshot`` feeds ``/api/v1/stats`` and ``repro top``.
    The rate is completions over a sliding window (not since-start, so a
    worker that died shows 0/s within a minute), tracked with one
    bounded timestamp deque per owner.
    """

    WINDOW_S = 60.0

    def __init__(self):
        self._lock = threading.Lock()
        self._completed: Dict[str, int] = {}  # guarded-by: _lock
        self._failed: Dict[str, int] = {}  # guarded-by: _lock
        self._recent: Dict[str, Deque[float]] = {}  # guarded-by: _lock

    def record(self, owner: str, ok: bool) -> None:
        owner = owner or "anonymous"
        now = time.monotonic()
        with self._lock:
            if ok:
                self._completed[owner] = self._completed.get(owner, 0) + 1
            else:
                self._failed[owner] = self._failed.get(owner, 0) + 1
            recent = self._recent.setdefault(owner, deque())
            recent.append(now)
            cutoff = now - self.WINDOW_S
            while recent and recent[0] < cutoff:
                recent.popleft()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        now = time.monotonic()
        cutoff = now - self.WINDOW_S
        with self._lock:
            owners = set(self._completed) | set(self._failed)
            view: Dict[str, Dict[str, object]] = {}
            for owner in sorted(owners):
                recent = self._recent.get(owner, ())
                in_window = sum(1 for stamp in recent if stamp >= cutoff)
                view[owner] = {
                    "completed": self._completed.get(owner, 0),
                    "failed": self._failed.get(owner, 0),
                    "rate_per_s": in_window / self.WINDOW_S,
                    "window_s": self.WINDOW_S,
                }
            return view


class CoordinatorHandler(JsonApiHandler):
    """Routes one request to the wrapped :class:`WorkQueue`."""

    server: "CoordinatorServer"
    server_version = "repro-coordinator/1"

    # -- queue endpoints ----------------------------------------------------

    def _ep_stats(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        stats = self.server.queue.stats()
        stats["throughput"] = self.server.throughput.snapshot()
        return stats

    def _ep_health(self, body: Dict[str, object]) -> Dict[str, object]:
        """Liveness + readiness: can this coordinator actually serve?

        ``writable`` probes the queue root (or its nearest existing
        parent, before first submit creates it) without mutating
        anything — a read-only mount is the classic silent coordinator
        failure, and a health check that only proves the process is up
        would miss it.
        """
        del body
        queue = self.server.queue
        probe = queue.root
        while not probe.is_dir() and probe.parent != probe:
            probe = probe.parent
        return {
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "queue_dir": str(queue.root),
            "writable": os.access(probe, os.W_OK),
            "lease_ttl": queue.lease_ttl,
        }

    def _ep_events(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        return self.server.events.snapshot()

    def _ep_metrics_prom(self, body: Dict[str, object]) -> RawReply:
        del body
        self.server.sync_registry()
        return RawReply(render(self.server.registry), PROM_CONTENT_TYPE)

    def _ep_claim(self, body: Dict[str, object]) -> Dict[str, object]:
        worker = _valid_worker(body.get("worker"))
        task = self.server.queue.claim(worker)
        if task is None:
            return {"task": None}
        owner = lease_owner(task.lease)
        self._log_event(f"claim {task.task_id[:12]} -> {owner}")
        if self.server.note_owner(owner):
            self._event("worker_joined", owner=owner)
        return {
            "task_id": task.task_id,
            "payload": task.payload,
            "lease": task.lease,
        }

    def _ep_extend(self, body: Dict[str, object]) -> Dict[str, object]:
        self.server.queue.extend(self._task(body))
        return {"ok": True}

    def _ep_complete(self, body: Dict[str, object]) -> Dict[str, object]:
        task = self._task(body)
        self.server.queue.complete(task)
        owner = lease_owner(task.lease)
        self.server.record_outcome(owner, ok=True)
        self._log_event(f"complete {task.task_id[:12]} by {owner}")
        return {"ok": True}

    def _ep_fail(self, body: Dict[str, object]) -> Dict[str, object]:
        task = self._task(body)
        error = str(body.get("error", ""))
        self.server.queue.fail(task, error=error)
        owner = lease_owner(task.lease)
        self.server.record_outcome(owner, ok=False)
        self._log_event(
            f"FAIL {task.task_id[:12]} by {owner}: quarantined under failed/"
        )
        return {"ok": True}

    def _ep_requeue(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        requeued = self.server.queue.requeue_expired()
        if requeued:
            self._log_event(f"requeued {requeued} expired lease(s)")
        return {"requeued": requeued}

    def _ep_result_put(self, body: Dict[str, object]) -> Dict[str, object]:
        key = _valid_key(body.get("key"))
        result = body.get("result")
        if not isinstance(result, dict):
            raise RequestError(400, "result must be a JSON object")
        self.server.queue.results.put(key, result)
        return {"ok": True}

    def _ep_result_discard_many(
        self, body: Dict[str, object]
    ) -> Dict[str, object]:
        keys = body.get("keys")
        if not isinstance(keys, list):
            raise RequestError(400, "batch discard requires a 'keys' list")
        if len(keys) > MAX_BATCH_POLL_IDS:
            raise RequestError(
                413, f"batch discard capped at {MAX_BATCH_POLL_IDS} keys"
            )
        for key in [_valid_key(key) for key in keys]:
            self.server.queue.results.discard(key)
        return {"ok": True}

    def _ep_batch_submit(self, body: Dict[str, object]) -> Dict[str, object]:
        payloads = body.get("payloads")
        if not isinstance(payloads, list) or not all(
            isinstance(payload, dict) for payload in payloads
        ):
            raise RequestError(
                400, "batch submit requires a 'payloads' list of JSON objects"
            )
        if len(payloads) > MAX_BATCH_POLL_IDS:
            raise RequestError(
                413, f"batch submit capped at {MAX_BATCH_POLL_IDS} payloads"
            )
        task_ids = self.server.queue.submit_many(payloads)
        if task_ids:
            self._log_event(f"batch submit: {len(task_ids)} task(s)")
        return {"task_ids": task_ids}

    def _ep_batch_poll(self, body: Dict[str, object]) -> Dict[str, object]:
        task_ids = body.get("task_ids")
        if not isinstance(task_ids, list):
            raise RequestError(400, "batch poll requires a 'task_ids' list")
        if len(task_ids) > MAX_BATCH_POLL_IDS:
            raise RequestError(
                413, f"batch poll capped at {MAX_BATCH_POLL_IDS} ids"
            )
        # Dedupe after validation: the reply is keyed by id anyway, and
        # a duplicate id re-visiting its (shared) entry after the reply
        # budget ran out would retro-defer a result already counted as
        # delivered — starving the "one result per reply" guarantee.
        keys = list(dict.fromkeys(_valid_key(task_id) for task_id in task_ids))
        tasks = self.server.queue.poll_many(keys)
        # Reply-side budget: inline result payloads up to roughly the
        # request body cap, then defer the rest (``result: null`` looks
        # "not done yet" to the client, which re-polls the undelivered
        # keys next tick — progressive delivery, never a giant reply).
        # At least one result is always delivered, so every tick that
        # has finished tasks makes progress.
        budget = self.server.max_body_bytes
        spent = 0
        exhausted = False
        for key in keys:
            entry = tasks.get(key)
            result = entry.get("result") if entry else None
            if result is None:
                continue
            # Once the budget is spent, defer without even sizing:
            # delivery is in key order, so the sizing work per tick is
            # bounded by the budget, not by the backlog.
            size = 0 if exhausted else len(json.dumps(result))
            if exhausted or (spent and spent + size > budget):
                exhausted = True
                entry["result"] = None
                entry["deferred"] = True
            else:
                spent += size
        return {"tasks": tasks}

    def _task(self, body: Dict[str, object]):
        """The (validated) claim a lease-operation request names."""
        task_id = _valid_key(body.get("task_id"))
        lease = _valid_lease(body.get("lease"))
        return self.server.queue.task_for(task_id, lease)


#: path -> (method, handler).  One flat table: the whole wire protocol.
_ROUTES = {
    "/api/v1/stats": ("GET", CoordinatorHandler._ep_stats),
    "/api/v1/health": ("GET", CoordinatorHandler._ep_health),
    "/api/v1/events": ("GET", CoordinatorHandler._ep_events),
    "/metrics.prom": ("GET", CoordinatorHandler._ep_metrics_prom),
    "/api/v1/claim": ("POST", CoordinatorHandler._ep_claim),
    "/api/v1/extend": ("POST", CoordinatorHandler._ep_extend),
    "/api/v1/complete": ("POST", CoordinatorHandler._ep_complete),
    "/api/v1/fail": ("POST", CoordinatorHandler._ep_fail),
    "/api/v1/requeue": ("POST", CoordinatorHandler._ep_requeue),
    "/api/v1/results/put": ("POST", CoordinatorHandler._ep_result_put),
    "/api/v1/results/discard_many": (
        "POST",
        CoordinatorHandler._ep_result_discard_many,
    ),
    "/api/v1/batch/submit": ("POST", CoordinatorHandler._ep_batch_submit),
    "/api/v1/batch/poll": ("POST", CoordinatorHandler._ep_batch_poll),
}


class CoordinatorServer(JsonApiServer):
    """A :class:`WorkQueue` exposed over HTTP to any host that can connect.

    Args:
        queue: the wrapped :class:`WorkQueue` (or a queue directory).
        host / port: bind address; port ``0`` picks an ephemeral port
            (`server_port` / `url` report the actual one).
        token: shared secret; ``None`` serves unauthenticated (loopback
            testing).  Production deployments should always set one —
            the queue evaluates arbitrary submitted payloads.
        quiet: suppress queue-event log lines (tests).
        max_body_bytes: per-request body cap, applied to the
            decompressed size for gzip requests (default
            :data:`MAX_BODY_BYTES`; tests shrink it).
    """

    log_name = "coordinator"

    def __init__(
        self,
        queue: Union[WorkQueue, str, Path],
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        quiet: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        if not isinstance(queue, WorkQueue):
            queue = WorkQueue(queue)
        self.queue = queue
        self.throughput = _OwnerThroughput()
        self._owners_seen: set = set()  # guarded-by: _owners_lock
        self._owners_lock = threading.Lock()
        super().__init__(
            host,
            port,
            CoordinatorHandler,
            _ROUTES,
            token=token,
            quiet=quiet,
            max_body_bytes=max_body_bytes,
        )
        # The queue emits quarantine/lease-expiry events into this
        # server's ring so they surface on /api/v1/events.
        self.queue.events = self.events
        self._completed_counter = self.registry.counter(
            "repro_tasks_completed_total",
            "Tasks completed, by worker owner.",
            label_names=("owner",),
        )
        self._failed_counter = self.registry.counter(
            "repro_tasks_failed_total",
            "Tasks quarantined, by worker owner.",
            label_names=("owner",),
        )

    def note_owner(self, owner: str) -> bool:
        """Record ``owner``; True the first time it is seen (a join)."""
        with self._owners_lock:
            if owner in self._owners_seen:
                return False
            self._owners_seen.add(owner)
            return True

    def record_outcome(self, owner: str, ok: bool) -> None:
        """One task finished (or was quarantined) by ``owner``."""
        self.throughput.record(owner, ok)
        counter = self._completed_counter if ok else self._failed_counter
        counter.inc(labels=(owner or "anonymous",))

    def sync_registry(self) -> None:
        """Set the queue-depth gauges from live queue state for a scrape."""
        stats = self.queue.stats()
        for name, help_text, value in (
            ("repro_queue_pending", "Tasks waiting to be claimed.",
             stats["pending"]),
            ("repro_queue_active", "Tasks under a live or expired lease.",
             stats["active"]),
            ("repro_queue_failed", "Tasks quarantined under failed/.",
             stats["failed"]),
            ("repro_queue_lease_ttl_seconds", "Configured lease TTL.",
             stats["lease_ttl"]),
            ("repro_queue_owners", "Distinct owners holding live leases.",
             len(stats["owners"])),
            ("repro_uptime_seconds", "Seconds since the server came up.",
             time.monotonic() - self.started_at),
        ):
            self.registry.gauge(name, help_text).set(value)
