"""``RemoteWorkQueue``: the ``TaskQueue`` contract spoken over HTTP.

A worker (or a ``--backend http`` submitter) holds nothing but a
coordinator URL and, optionally, a shared token — no mount, no queue
directory.  Every :class:`~repro.runner.queue.TaskQueue` method maps to
one coordinator endpoint; the queue semantics (atomic claims, lease
heartbeats, expiry re-queueing, sticky quarantine, idempotent
completes) live entirely on the coordinator, so this client is a thin,
*retrying* proxy:

- Connection failures, timeouts and 5xx responses are retried with
  bounded exponential backoff — a coordinator restart mid-sweep (its
  state is on disk) looks like a brief network blip, not a failure.
- 4xx responses are **not** retried: they mean this client sent
  something the coordinator will never accept (bad token, malformed
  task id, unknown endpoint), and repeating it would just re-fail.
- Completes are idempotent end to end: re-sending a ``complete`` whose
  first response was lost re-releases an already-released lease, which
  is harmless.

The wire is protocol 2 and only that: submissions and status polls
travel through the coordinator's ``batch/submit`` / ``batch/poll``
endpoints, and any request body of
:data:`~repro.runner.transport.http_common.GZIP_MIN_BYTES` or more is
gzip-compressed — the same rule the coordinator applies to its replies.

Requests go through :class:`~repro.runner.transport.http_common.KeepAliveClient`
(stdlib ``http.client``, no dependencies): one kept-alive HTTP/1.1
connection per thread, so a worker loop and its heartbeat thread share
one client without a heartbeat ever waiting behind a long
``batch/submit``.  A kept connection the coordinator has closed (idle
bound, restart) is replaced transparently; that resend is not a retry.
"""

from __future__ import annotations

import gzip
import json
import math
import threading
import time
from http.client import HTTPException
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs import new_request_id
from repro.runner.queue import Task, TaskQueue
from repro.runner.transport.http_common import (
    GZIP_MIN_BYTES,
    CorruptReply,
    HttpReply,
    KeepAliveClient,
)

#: Attempts per request: 1 + DEFAULT_RETRIES.  With the default backoff
#: the final attempt lands ~25 s after the first — enough to ride out a
#: coordinator restart, bounded enough to fail fast when it's gone.
DEFAULT_RETRIES = 7

#: First retry delay in seconds; doubles per attempt.
DEFAULT_BACKOFF = 0.2

#: How long (seconds) the cached coordinator ``lease_ttl`` may be
#: trusted before it is re-fetched: a coordinator restarted with a
#: different ``--lease-ttl`` must not leave workers heartbeating on the
#: stale period forever.
LEASE_TTL_MAX_AGE = 60.0

#: Items per batch request.  Stays far under the coordinator's
#: 10,000-id ``batch/poll`` cap and keeps ``batch/submit`` bodies well
#: clear of the request size limit, so a sweep of any size chunks into
#: a handful of round trips instead of tripping a 413.
BATCH_CHUNK = 1_000


class TransportError(RuntimeError):
    """The coordinator could not be reached or rejected the request.

    ``status`` carries the HTTP status code when the coordinator
    answered with an error (``None`` for connection-level failures and
    for replies of the wrong shape).
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class CoordinatorAuthError(TransportError):
    """The coordinator rejected this client's bearer token (HTTP 401/403)."""


class RemoteResults:
    """The coordinator's result store, as far as the queue machinery writes it.

    ``put`` (a worker hands a result back) and ``discard_many`` (a
    ``--no-cache`` submitter forgets stale results); results are read
    back through ``batch/poll``.  They live on the coordinator host,
    content-addressed under the same keys the local cache would use, so
    a submitter copies them straight into its own ``--cache-dir``.
    """

    def __init__(self, queue: "RemoteWorkQueue"):
        self._queue = queue

    def put(self, key: str, payload: Dict[str, object]) -> None:
        self._queue._call("results/put", {"key": key, "result": payload})

    def discard_many(self, keys: Sequence[str]) -> None:
        """Forget every key via ``results/discard_many``, chunked: the
        ``--no-cache`` submitter clears a whole sweep in O(1) round
        trips instead of one per point."""
        self._queue._batch_calls("results/discard_many", "keys", list(keys))


class RemoteWorkQueue(TaskQueue):
    """A work queue that lives behind ``repro coordinator`` somewhere.

    Args:
        url: coordinator base URL, e.g. ``http://10.0.0.5:8642``.
        token: shared secret matching the coordinator's ``--token-file``
            (``None`` for an unauthenticated coordinator).
        retries: retransmissions per request after the first attempt
            (connection errors / timeouts / 5xx only).
        backoff: first retry delay in seconds; doubles per attempt.
        timeout: per-request socket timeout in seconds.
        lease_ttl_max_age: seconds before the cached coordinator
            ``lease_ttl`` is considered stale and re-fetched.

    Wire accounting: ``round_trips``, ``bytes_sent`` and
    ``bytes_received`` count every attempt's request and reply bodies
    as they crossed the wire (compressed sizes, not JSON sizes), error
    replies included — the overhead bench records them per backend.  A
    resend on a fresh connection, after the coordinator closed a kept
    one unanswered, is part of its attempt and not counted again.

    One client may be shared by threads (a worker loop and its
    heartbeat): each thread gets its own kept-alive connection, and the
    counters are updated under one lock.
    """

    def __init__(
        self,
        url: str,
        token: Optional[str] = None,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        timeout: float = 30.0,
        lease_ttl_max_age: float = LEASE_TTL_MAX_AGE,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.url = url.rstrip("/")
        self.token = token
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.timeout = float(timeout)
        self.lease_ttl_max_age = float(lease_ttl_max_age)
        self.results = RemoteResults(self)
        self.round_trips = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        #: The id the coordinator echoed on the most recent reply —
        #: what an operator quotes to find this client's requests in
        #: the coordinator's ``/api/v1/events``.
        self.last_request_id: Optional[str] = None
        #: claim-minted request id per live task: ``extend`` /
        #: ``complete`` / ``fail`` reuse the claim's id, so one id
        #: follows a task across its whole lease on the coordinator.
        self._task_request_ids: Dict[str, str] = {}
        self._wire_lock = threading.Lock()
        self._connection = KeepAliveClient(self.url, token=token, timeout=self.timeout)
        self._lease_ttl: Optional[float] = None
        self._lease_ttl_fetched = 0.0

    # -- TaskQueue contract -------------------------------------------------

    @property
    def location(self) -> str:
        return self.url

    @property
    def lease_ttl(self) -> float:
        """The coordinator's TTL (it owns the policy), refreshed when stale.

        A coordinator restarted with a different ``--lease-ttl`` must
        not leave this client heartbeating on the old period forever,
        so the cached value is re-fetched after ``lease_ttl_max_age``
        seconds.  A failed refresh keeps the stale value (a heartbeat
        on a slightly wrong period beats no heartbeat at all) and is
        retried within a few seconds, not after another full staleness
        window.
        """
        now = time.monotonic()
        if self._lease_ttl is None:
            self._lease_ttl = self._fetch_lease_ttl()
            self._lease_ttl_fetched = now
        elif now - self._lease_ttl_fetched >= self.lease_ttl_max_age:
            try:
                self._lease_ttl = self._fetch_lease_ttl()
                self._lease_ttl_fetched = now
            except TransportError:
                # Back-date the stamp so the next read past a short
                # grace period retries, instead of trusting the stale
                # value for a whole fresh staleness window.
                retry = min(5.0, self.lease_ttl_max_age)
                self._lease_ttl_fetched = now - self.lease_ttl_max_age + retry
        return self._lease_ttl

    def _fetch_lease_ttl(self) -> float:
        """The coordinator's ``lease_ttl``, validated finite and positive.

        ``json.loads`` accepts ``NaN``/``Infinity``, and a NaN TTL makes
        every heartbeat-interval comparison silently False — so a bad
        value from the wire is a :class:`TransportError` (the refresh
        path then keeps the previous TTL), never a cached poison value.
        """
        raw = self.stats()["lease_ttl"]
        try:
            ttl = float(raw)
        except (TypeError, ValueError) as exc:
            raise TransportError(f"coordinator sent non-numeric lease_ttl {raw!r}") from exc
        if not math.isfinite(ttl) or ttl <= 0:
            raise TransportError(f"coordinator sent invalid lease_ttl {raw!r}")
        return ttl

    def _batch_calls(
        self, endpoint: str, field: str, items: List[object]
    ) -> List[Dict[str, object]]:
        """Send ``items`` to a batch endpoint, one round trip per
        :data:`BATCH_CHUNK` items (a single trip for any normal sweep,
        none for no items); returns the per-chunk replies."""
        return [
            self._call(endpoint, {field: items[start:start + BATCH_CHUNK]})
            for start in range(0, len(items), BATCH_CHUNK)
        ]

    def _malformed(self, endpoint: str) -> TransportError:
        return TransportError(
            f"coordinator {self.url} sent a malformed {endpoint} reply"
        )

    def submit_many(self, payloads: Sequence[Mapping[str, object]]) -> List[str]:
        """Enqueue every payload via ``batch/submit``."""
        payloads = [dict(payload) for payload in payloads]
        ids: List[str] = []
        for reply in self._batch_calls("batch/submit", "payloads", payloads):
            task_ids = reply.get("task_ids")
            if not isinstance(task_ids, list):
                raise self._malformed("batch/submit")
            ids.extend(str(task_id) for task_id in task_ids)
        return ids

    def poll_many(
        self, task_ids: Sequence[str]
    ) -> Dict[str, Dict[str, object]]:
        """Status of every task via ``batch/poll``."""
        task_ids = list(dict.fromkeys(task_ids))  # reply is keyed by id
        snapshot: Dict[str, Dict[str, object]] = {}
        for reply in self._batch_calls("batch/poll", "task_ids", task_ids):
            tasks = reply.get("tasks")
            if not isinstance(tasks, dict):
                raise self._malformed("batch/poll")
            snapshot.update(
                (task_id, dict(entry) if isinstance(entry, dict) else {})
                for task_id, entry in tasks.items()
            )
        return snapshot

    def claim(self, worker: str = "") -> Optional[Task]:
        request_id = new_request_id()
        reply = self._call("claim", {"worker": worker}, request_id=request_id)
        if reply.get("task", "present") is None:
            return None
        task_id = reply.get("task_id")
        payload = reply.get("payload")
        lease = reply.get("lease")
        if not (
            isinstance(task_id, str)
            and isinstance(payload, dict)
            and isinstance(lease, str)
        ):
            raise self._malformed("claim")
        with self._wire_lock:
            self._task_request_ids[task_id] = request_id
        return Task(task_id=task_id, payload=payload, lease=lease)

    def _task_request_id(self, task_id: str, pop: bool = False) -> Optional[str]:
        """The claim's request id for ``task_id`` (popped when the task
        leaves this worker's hands)."""
        with self._wire_lock:
            if pop:
                return self._task_request_ids.pop(task_id, None)
            return self._task_request_ids.get(task_id)

    def extend(self, task: Task) -> None:
        self._call(
            "extend",
            {"task_id": task.task_id, "lease": task.lease},
            request_id=self._task_request_id(task.task_id),
        )

    def complete(self, task: Task) -> None:
        self._call(
            "complete",
            {"task_id": task.task_id, "lease": task.lease},
            request_id=self._task_request_id(task.task_id, pop=True),
        )

    def fail(self, task: Task, error: str = "") -> None:
        self._call(
            "fail",
            {"task_id": task.task_id, "lease": task.lease, "error": error},
            request_id=self._task_request_id(task.task_id, pop=True),
        )

    def requeue_expired(self, now: Optional[float] = None) -> int:
        del now  # expiry is judged by the coordinator's clock, not ours
        return int(self._call("requeue", {})["requeued"])

    def stats(self) -> Dict[str, object]:
        return self._call("stats", method="GET")

    def pending_count(self) -> int:
        return int(self.stats()["pending"])

    def active_count(self) -> int:
        return int(self.stats()["active"])

    def failed_count(self) -> int:
        return int(self.stats()["failed"])

    def active_owners(self) -> List[str]:
        return [str(owner) for owner in self.stats()["owners"]]

    # -- wire ---------------------------------------------------------------

    def _call(
        self,
        endpoint: str,
        body: Optional[Dict[str, object]] = None,
        method: str = "POST",
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """One coordinator round-trip with bounded retry-with-backoff.

        Every attempt of one logical call carries the *same*
        ``X-Repro-Request-Id`` (supplied, or minted here), so retries of
        a lost reply are recognisably one request in the coordinator's
        event log.  A reply that will not decode (bad gzip or bad JSON)
        is retried like a dropped connection.
        """
        request_id = request_id or new_request_id()
        last_error: object = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                reply = self._once(endpoint, body, method, request_id)
            except (OSError, HTTPException) as exc:
                last_error = exc
                continue
            if reply.status >= 400:
                detail = reply.error_message()
                if reply.status in (401, 403):
                    raise CoordinatorAuthError(
                        f"coordinator {self.url} rejected credentials "
                        f"({reply.status}): {detail}",
                        status=reply.status,
                    )
                if reply.status < 500 and reply.status != 408:
                    # Our request is wrong; re-sending it cannot help.
                    raise TransportError(
                        f"coordinator {self.url} rejected "
                        f"/{endpoint} ({reply.status}): {detail}",
                        status=reply.status,
                    )
                # 5xx / 408: the coordinator's problem
                last_error = f"HTTP {reply.status}: {detail}"
                continue
            try:
                decoded = reply.json()
            except (json.JSONDecodeError, CorruptReply) as exc:
                last_error = exc
                continue
            if not isinstance(decoded, dict):
                raise TransportError(
                    f"coordinator {self.url} sent a non-object reply "
                    f"for /{endpoint}"
                )
            return decoded
        raise TransportError(
            f"coordinator {self.url} unreachable: /{endpoint} failed "
            f"{self.retries + 1} time(s); last error: {last_error}"
        )

    def _once(
        self,
        endpoint: str,
        body: Optional[Dict[str, object]],
        method: str,
        request_id: str,
    ) -> HttpReply:
        """One attempt on this thread's connection, counted on the wire."""
        data = None
        headers = {}
        if method == "POST":
            data = json.dumps(body or {}).encode("utf-8")
            if len(data) >= GZIP_MIN_BYTES:
                data = gzip.compress(data, compresslevel=5)
                headers["Content-Encoding"] = "gzip"
        with self._wire_lock:
            self.round_trips += 1
            self.bytes_sent += len(data) if data else 0
        reply = self._connection.request(
            method,
            f"/api/v1/{endpoint}",
            body=data,
            headers=headers,
            request_id=request_id,
        )
        with self._wire_lock:
            self.bytes_received += len(reply.raw)
            self.last_request_id = reply.request_id
        return reply
