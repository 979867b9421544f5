"""Multi-host work queues with lease-based fault tolerance.

Two queue implementations share one contract (:class:`TaskQueue`):
:class:`WorkQueue` here — directory-backed, for hosts that share a
filesystem — and
:class:`~repro.runner.transport.client.RemoteWorkQueue`, which speaks
the same contract to an HTTP coordinator (itself a :class:`WorkQueue`
served over REST) for hosts that share nothing but a network.  The
worker loop (:func:`drain`), the heartbeat machinery and the
:class:`~repro.runner.backends.queue.QueueBackend` submitter are all
written against the contract, so lease expiry, poison-task quarantine
and crash recovery behave identically over a mount and over a socket.
The contract submits and polls in batches (:meth:`TaskQueue.submit_many`,
:meth:`TaskQueue.poll_many`): the file queue loops over its tasks, the
HTTP client makes one ``batch/*`` round trip.

Any number of workers on any number of hosts that share one filesystem
(NFS, a bind mount, plain local disk) drain a single queue directory:

- ``<root>/pending/<task_id>.json`` — a submitted, unclaimed task.  The
  file body is the task's JSON payload; ``task_id`` is the payload's
  content address (:func:`repro.runner.job.payload_key`), so duplicate
  submissions collapse onto one file and one evaluation.
- ``<root>/active/<task_id>.<nonce>.json`` — a claimed task.  Claiming
  is a single atomic ``os.replace`` of the pending file, so exactly one
  claimer wins a task no matter how many workers race for it.  The
  lease file's mtime is the worker's heartbeat: a lease older than
  ``lease_ttl`` seconds is considered dead and any scanner moves it
  back to ``pending/`` (again via ``os.replace``), so a crashed worker
  only ever *delays* its tasks, it cannot lose them.
- ``<root>/results/`` — a content-addressed
  :class:`~repro.runner.cache.ResultCache` where workers drop finished
  results under the task id.  Submitters detect completion by polling
  this cache, which also means a task that was re-queued *after* its
  (slow, not dead) worker finished is recognised as already done at the
  next claim and discarded instead of re-evaluated.
- ``<root>/failed/`` — quarantine for tasks whose evaluation *raised*
  (as opposed to the worker dying): re-queueing those would crash-loop
  every worker in the fleet, so they are moved aside (payload plus a
  ``.traceback`` sidecar) and the worker keeps draining.  Failure is
  sticky — evaluation here is deterministic, so retrying an identical
  payload is futile; submitters surface the recorded traceback instead
  of hanging, and a human retries by deleting the ``failed/`` entry.

Every transition is an atomic rename or an atomic cache write, so a
worker can die at any instant without corrupting the queue.  Hosts'
clocks only feed lease *expiry*; keep ``lease_ttl`` comfortably above
both the longest task and the worst expected clock skew.
"""

from __future__ import annotations

import abc
import json
import math
import os
import socket
import threading
import time
import traceback
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.runner.cache import ResultCache
from repro.runner.job import payload_key

#: Default queue root, relative to the working directory.
DEFAULT_QUEUE_DIR = ".repro_queue"

#: Default lease time-to-live in seconds.  Generous on purpose: expiry
#: exists to recover from *dead* workers, and a premature expiry merely
#: duplicates (deterministic, content-addressed) work.
DEFAULT_LEASE_TTL = 300.0


@dataclass(frozen=True)
class Task:
    """One claimed unit of work: evaluate ``payload``, store under ``task_id``.

    ``lease`` is the claim's owner nonce — the token that names this
    particular claim in every later :meth:`TaskQueue.extend` /
    ``complete`` / ``fail`` call (and, for the file queue, the middle
    component of the lease file's name).  ``lease_path`` is set only by
    the file-backed :class:`WorkQueue`; remote queues have no path.
    """

    task_id: str
    payload: Dict[str, object]
    lease: str = ""
    lease_path: Optional[Path] = field(default=None, compare=False)


class TaskQueue(abc.ABC):
    """The claim/lease/complete contract every work queue implements.

    Both :class:`WorkQueue` (shared filesystem) and the HTTP
    :class:`~repro.runner.transport.client.RemoteWorkQueue` satisfy this
    interface, which is what lets :func:`drain`, the heartbeat thread
    and :class:`~repro.runner.backends.queue.QueueBackend` run unchanged
    over either transport.  It holds exactly what those three call.
    Implementations must guarantee:

    - **atomic claims** — exactly one caller wins any task, no matter
      how many claim concurrently (from threads, processes or hosts);
    - **idempotent completes** — completing a task whose lease is gone
      (expired, re-queued, already completed) is a harmless no-op;
    - **sticky failure** — a failed task is quarantined, not re-queued.

    Attributes every implementation exposes:
        lease_ttl: seconds before an unrefreshed lease is considered
            dead and its task re-queued.
        results: the content-addressed result store where completed
            task outputs land; the contract writes it with ``put`` and
            ``discard_many`` and reads it through :meth:`poll_many`.
    """

    lease_ttl: float
    results: object

    @abc.abstractmethod
    def submit_many(self, payloads: Sequence[Mapping[str, object]]) -> List[str]:
        """Enqueue every payload (idempotent); returns their task ids."""

    @abc.abstractmethod
    def poll_many(
        self, task_ids: Sequence[str]
    ) -> Dict[str, Dict[str, object]]:
        """One status snapshot per task id, for the submitter poll loop.

        Each entry answers everything a submitter tick asks about a
        task — ``{"result": payload-or-None, "failed": bool,
        "error": str, "lease_live": bool}`` — for the whole sweep in
        one call.  ``failed``/``lease_live`` are only probed when there
        is no result yet: a finished task's other states are irrelevant
        to the poll loop.
        """

    @abc.abstractmethod
    def claim(self, worker: str = "") -> Optional[Task]:
        """Atomically claim one pending task, or ``None`` if none remain."""

    @abc.abstractmethod
    def extend(self, task: Task) -> None:
        """Heartbeat: push ``task``'s lease expiry ``lease_ttl`` ahead."""

    @abc.abstractmethod
    def complete(self, task: Task) -> None:
        """Release ``task``'s lease after its result reached :attr:`results`."""

    @abc.abstractmethod
    def fail(self, task: Task, error: str = "") -> None:
        """Quarantine ``task`` (sticky) instead of re-queueing it."""

    @abc.abstractmethod
    def requeue_expired(self, now: Optional[float] = None) -> int:
        """Move every expired lease back to pending; returns how many."""

    @abc.abstractmethod
    def pending_count(self) -> int: ...

    @abc.abstractmethod
    def active_count(self) -> int: ...

    @abc.abstractmethod
    def failed_count(self) -> int: ...

    @property
    def location(self) -> str:
        """Where this queue lives, for log and error messages."""
        return repr(self)

    def active_owners(self) -> List[str]:
        """Owner ids (see :func:`lease_owner`) of the live leases."""
        return []

    def stats(self) -> Dict[str, object]:
        """One JSON-safe snapshot of queue health, attributable by owner."""
        return {
            "pending": self.pending_count(),
            "active": self.active_count(),
            "failed": self.failed_count(),
            "lease_ttl": self.lease_ttl,
            "owners": self.active_owners(),
        }

    @contextmanager
    def heartbeat(self, task: Task):
        """Keep ``task``'s lease fresh for the duration of the block.

        A daemon thread extends the lease every ``lease_ttl / 4``
        seconds (numpy releases the GIL in its kernels, so the beat
        runs even during a heavy evaluation), so a task may legally
        take much longer than the TTL: expiry then only ever fires for
        workers that actually died.

        The interval is re-read before every beat, not frozen at task
        start: a remote queue's ``lease_ttl`` refreshes when the
        coordinator is restarted with a different ``--lease-ttl``, and
        an in-flight task must adopt the new cadence (within one old
        interval) or its beats could land slower than the new expiry.
        """
        stop = threading.Event()

        def interval() -> float:
            try:
                return self.lease_ttl / 4
            except Exception:  # checks: allow-broad-except heartbeat falls back to the default cadence
                # Remote queues fetch the TTL from the coordinator,
                # which may be briefly unreachable; beat at the default
                # cadence rather than not at all.
                return DEFAULT_LEASE_TTL / 4

        def beat() -> None:
            while not stop.wait(interval()):
                try:
                    self.extend(task)
                except Exception:  # checks: allow-broad-except a failed beat must not kill the heartbeat
                    # A failed beat must never kill the heartbeat: the
                    # lease survives missed renewals for up to a full
                    # TTL, and the next beat may reach a restarted
                    # coordinator.  (WorkQueue.extend never raises;
                    # RemoteWorkQueue.extend can, after its retries.)
                    pass

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()


class WorkQueue(TaskQueue):
    """Directory-backed task queue shared by every host that mounts it."""

    def __init__(
        self,
        root: Union[str, Path] = DEFAULT_QUEUE_DIR,
        lease_ttl: float = DEFAULT_LEASE_TTL,
    ):
        # math.isfinite first: a NaN TTL passes `<= 0` (every NaN
        # comparison is False) and then silently breaks all lease
        # expiry math downstream.
        if not math.isfinite(lease_ttl) or lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be finite and positive, got {lease_ttl}")
        self.root = Path(root)
        self.lease_ttl = float(lease_ttl)
        self.pending_dir = self.root / "pending"
        self.active_dir = self.root / "active"
        self.failed_dir = self.root / "failed"
        #: Optional structured event sink (anything with an
        #: ``emit(kind, **fields)`` — see :class:`repro.obs.EventLog`).
        #: The coordinator attaches its log here so quarantines and
        #: lease expiries land in ``/api/v1/events``; standalone queues
        #: leave it ``None`` and pay nothing.
        self.events = None
        #: Where workers drop finished results (keyed by task id).  Kept
        #: inside the queue root so sharing the queue directory is all
        #: the coordination submitters and workers ever need.
        self.results = ResultCache(self.root / "results")

    # -- submission ---------------------------------------------------------

    def submit(self, payload: Mapping[str, object]) -> str:
        """Enqueue ``payload`` (idempotent); returns its task id.

        Already-finished tasks (result present), already-pending tasks
        and quarantined tasks (see :meth:`fail`) are not re-enqueued.
        A task that is currently *active* is re-enqueued only once its
        lease expires — re-submitting it here would race the live
        worker for no benefit.
        """
        task_id = payload_key(payload)
        if (
            task_id in self.results
            or self._is_active(task_id)
            or self.is_failed(task_id)
        ):
            return task_id
        path = self.pending_dir / f"{task_id}.json"
        if path.is_file():
            return task_id
        self.pending_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}")
        tmp.write_text(_dumps(payload), encoding="utf-8")
        os.replace(tmp, path)
        if task_id in self.results or self._is_active(task_id):
            # A claimer (or a finishing worker) slipped in between the
            # existence checks above and our write, so the file we just
            # created is a duplicate of a task already in flight —
            # withdraw it.  Should a racer claim the duplicate first,
            # that claim is harmless (evaluation is deterministic and
            # results are content-addressed); this just avoids the
            # wasted work in the common interleaving.
            _unlink(path)
        return task_id

    def submit_many(self, payloads: Sequence[Mapping[str, object]]) -> List[str]:
        """Enqueue every payload (idempotent); returns their task ids."""
        return [self.submit(payload) for payload in payloads]

    def poll_many(
        self, task_ids: Sequence[str]
    ) -> Dict[str, Dict[str, object]]:
        """One status snapshot per task id (see :meth:`TaskQueue.poll_many`)."""
        snapshot: Dict[str, Dict[str, object]] = {}
        for task_id in task_ids:
            result = self.results.get(task_id)
            failed = False
            error = ""
            lease_live = False
            if result is None:
                failed = self.is_failed(task_id)
                if failed:
                    error = self.failed_error(task_id)
                else:
                    lease_live = self.has_live_lease(task_id)
            snapshot[task_id] = {
                "result": result,
                "failed": failed,
                "error": error,
                "lease_live": lease_live,
            }
        return snapshot

    # -- claiming -----------------------------------------------------------

    def claim(self, worker: str = "") -> Optional[Task]:
        """Atomically claim one pending task, or ``None`` if none remain.

        Also re-queues any expired leases first, so a single draining
        worker is enough to recover every dead worker's tasks.  Tasks
        whose result already exists are discarded, not returned.
        """
        self.requeue_expired()
        for path in sorted(self.pending_dir.glob("*.json")):
            task_id = path.stem
            nonce = _nonce(worker)
            lease = self.active_dir / f"{task_id}.{nonce}.json"
            self.active_dir.mkdir(parents=True, exist_ok=True)
            try:
                os.replace(path, lease)
            except FileNotFoundError:
                continue  # lost the race for this task; try the next
            if task_id in self.results:
                _unlink(lease)  # finished by a slow worker after re-queue
                continue
            try:
                payload = _loads(lease.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                _unlink(lease)  # unreadable task file; drop it
                continue
            return Task(
                task_id=task_id,
                payload=payload,
                lease=nonce,
                lease_path=lease,
            )
        return None

    def task_for(self, task_id: str, lease: str) -> Task:
        """Rebind a claim by its ``(task_id, lease)`` coordinates.

        How the HTTP coordinator resolves extend/complete/fail requests:
        the remote worker only holds the lease nonce its claim returned,
        and this reconstructs the :class:`Task` (payload-free — none of
        the lease operations read it) that names the same lease file.
        """
        return Task(
            task_id=task_id,
            payload={},
            lease=lease,
            lease_path=self.active_dir / f"{task_id}.{lease}.json",
        )

    def extend(self, task: Task) -> None:
        """Heartbeat: push ``task``'s lease expiry ``lease_ttl`` into the future."""
        try:
            os.utime(task.lease_path)
        except FileNotFoundError:
            pass  # lease expired and was re-queued; nothing to extend

    def complete(self, task: Task) -> None:
        """Release ``task``'s lease after its result reached :attr:`results`."""
        _unlink(task.lease_path)

    def fail(self, task: Task, error: str = "") -> None:
        """Quarantine ``task`` under ``failed/`` instead of re-queueing.

        For tasks whose *evaluation raised* — a deterministic failure
        would take down every worker that re-claims it, so the task is
        moved aside (payload preserved for inspection, ``error`` in a
        ``.traceback`` sidecar for submitters to surface) and the fleet
        keeps draining.  A lease that was already expired and re-queued
        loses the race here harmlessly.
        """
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        if error:
            sidecar = self.failed_dir / f"{task.task_id}.traceback"
            sidecar.write_text(error, encoding="utf-8")
        try:
            os.replace(
                task.lease_path, self.failed_dir / task.lease_path.name
            )
        except FileNotFoundError:
            pass
        if self.events is not None:
            self.events.emit(
                "task_quarantined",
                task_id=task.task_id,
                owner=lease_owner(task.lease),
                error=error[:200],
            )

    def is_failed(self, task_id: str) -> bool:
        """Whether ``task_id`` has been quarantined under ``failed/``."""
        return any(self.failed_dir.glob(f"{task_id}.*.json"))

    def failed_error(self, task_id: str) -> str:
        """The recorded traceback for a quarantined task ('' if none)."""
        sidecar = self.failed_dir / f"{task_id}.traceback"
        try:
            return sidecar.read_text(encoding="utf-8")
        except OSError:
            return ""

    def has_live_lease(self, task_id: str) -> bool:
        """Whether some worker currently holds an unexpired lease on
        ``task_id`` — i.e. the task *appears* to be in good hands."""
        # checks: allow-wall-clock lease expiry compares cross-host file mtimes (epoch seconds)
        now = time.time()
        for lease in self.active_dir.glob(f"{task_id}.*.json"):
            try:
                if lease.stat().st_mtime + self.lease_ttl > now:
                    return True
            except FileNotFoundError:
                continue
        return False

    # -- fault recovery -----------------------------------------------------

    def requeue_expired(self, now: Optional[float] = None) -> int:
        """Move every expired lease back to pending; returns how many."""
        if not self.active_dir.is_dir():
            return 0
        # checks: allow-wall-clock lease expiry compares cross-host file mtimes (epoch seconds)
        now = time.time() if now is None else now
        requeued = 0
        for lease in sorted(self.active_dir.glob("*.json")):
            try:
                expired = lease.stat().st_mtime + self.lease_ttl <= now
            except FileNotFoundError:
                continue  # completed (or re-queued) under us
            if not expired:
                continue
            task_id = lease.name.split(".", 1)[0]
            if task_id in self.results:
                _unlink(lease)  # the "dead" worker actually finished
                continue
            try:
                os.replace(lease, self.pending_dir / f"{task_id}.json")
            except FileNotFoundError:
                continue
            requeued += 1
            if self.events is not None:
                parts = lease.name.split(".")
                owner = lease_owner(parts[1]) if len(parts) >= 3 else ""
                self.events.emit(
                    "lease_expired",
                    task_id=task_id,
                    owner=owner,
                )
        return requeued

    # -- introspection ------------------------------------------------------

    def pending_count(self) -> int:
        return sum(1 for _ in self.pending_dir.glob("*.json"))

    def active_count(self) -> int:
        return sum(1 for _ in self.active_dir.glob("*.json"))

    def failed_count(self) -> int:
        return sum(1 for _ in self.failed_dir.glob("*.json"))

    @property
    def location(self) -> str:
        return str(self.root)

    def active_owners(self) -> List[str]:
        """Owners of the live leases, for attributable queue stats."""
        owners = set()
        for lease in self.active_dir.glob("*.json"):
            parts = lease.name.split(".")
            if len(parts) >= 3:
                owners.add(lease_owner(parts[1]))
        return sorted(owners)

    def stats(self) -> Dict[str, object]:
        stats = super().stats()
        stats["results"] = len(self.results)
        return stats

    def _is_active(self, task_id: str) -> bool:
        return any(self.active_dir.glob(f"{task_id}.*.json"))


def drain(
    queue: TaskQueue,
    handler: Callable[[Mapping[str, object]], Dict[str, object]],
    max_tasks: Optional[int] = None,
    idle_timeout: Optional[float] = None,
    poll_interval: float = 0.1,
    worker: str = "",
) -> int:
    """Worker loop: claim, evaluate, store, repeat; returns tasks completed.

    ``handler`` maps a task payload to its JSON-safe result payload
    (the ``repro worker`` CLI validates with
    :func:`repro.runner.job.job_from_payload` and evaluates with
    :func:`repro.runner.evaluate.evaluate_point`).  The loop exits after
    ``max_tasks`` completions, or once the queue has stayed empty for
    ``idle_timeout`` seconds (``None`` drains forever — the service
    mode for a long-lived worker host).

    The worker must outlive any single bad task: a handler exception
    quarantines that task under ``failed/`` (re-queueing a
    deterministically poisonous payload would crash-loop the whole
    fleet) and the loop moves on.  While a task runs, its lease is kept
    fresh by :meth:`WorkQueue.heartbeat`, so evaluations may take far
    longer than the lease TTL without being declared dead.
    """
    completed = 0
    idle_start = time.monotonic()
    while max_tasks is None or completed < max_tasks:
        task = queue.claim(worker)
        if task is None:
            if (
                idle_timeout is not None
                and time.monotonic() - idle_start >= idle_timeout
            ):
                break
            time.sleep(poll_interval)
            continue
        try:
            with queue.heartbeat(task):
                output = handler(task.payload)
        except Exception:  # checks: allow-broad-except poison task is quarantined via queue.fail
            traceback.print_exc()
            queue.fail(task, error=traceback.format_exc())
            idle_start = time.monotonic()
            continue
        queue.results.put(task.task_id, output)
        queue.complete(task)
        completed += 1
        idle_start = time.monotonic()
    return completed


# -- helpers ----------------------------------------------------------------


def default_owner() -> str:
    """``<hostname>-<pid>``: who holds a lease, attributable across hosts."""
    return f"{_sanitize(socket.gethostname()) or 'host'}-{os.getpid()}"


def lease_owner(lease: str) -> str:
    """The owner id embedded in a lease nonce (strips the unique suffix)."""
    return lease.rsplit("-", 1)[0]


def _sanitize(text: str) -> str:
    return "".join(ch for ch in text if ch.isalnum() or ch in "-_")[:48]


def _nonce(worker: str) -> str:
    """A unique lease name that stays attributable: ``[tag-]host-pid-uuid``.

    The hostname and pid are always embedded — not just the caller's
    tag — so a lease (or a ``failed/`` record, which keeps the lease's
    file name) identifies *which process on which machine* held it,
    even across hosts whose workers were started identically.
    """
    tag = _sanitize(worker)
    owner = f"{tag}-{default_owner()}" if tag else default_owner()
    return f"{owner}-{uuid.uuid4().hex[:8]}"


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except FileNotFoundError:
        pass


def _dumps(payload: Mapping[str, object]) -> str:
    return json.dumps(payload, sort_keys=True)


def _loads(text: str) -> Dict[str, object]:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("task payload must be a JSON object")
    return payload
