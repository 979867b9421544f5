"""Tests for the file-based multi-host work queue.

Covers the claim/complete lifecycle (atomic, race-free by
construction — including under a many-thread claim hammer), idempotent
submission, lease expiry and re-queueing, owner attribution in leases
and stats, the worker drain loop, and — the crash-recovery acceptance
test — a sweep that still completes with bitwise-correct results after
a worker dies mid-task and its lease expires.
"""

import os
import threading
import time

import pytest

from repro.models.benchmark import MemoizedResult
from repro.runner import (
    ParallelRunner,
    QueueBackend,
    QueueDrainTimeout,
    QueueTaskFailed,
    SweepJob,
    Task,
    WorkQueue,
    default_owner,
    drain,
    lease_owner,
    payload_key,
)


def sample_payload(tag: int = 0):
    """A minimal JSON task payload (queue machinery never inspects it)."""
    return {"kind": "test", "tag": tag}


def echo_handler(payload):
    return {"echo": payload["tag"]}


def expire_lease(task: Task) -> None:
    """Backdate a lease far enough that any positive TTL has expired."""
    # checks: allow-wall-clock lease files expire by mtime, which is wall-clock epoch seconds
    past = time.time() - 10_000
    os.utime(task.lease_path, (past, past))


def results_equal(a: MemoizedResult, b: MemoizedResult) -> bool:
    return (
        a.quality == b.quality
        and a.quality_loss == b.quality_loss
        and a.reuse_fraction == b.reuse_fraction
        and a.stats.reused == b.stats.reused
        and a.stats.total == b.stats.total
    )


class TestWorkQueueLifecycle:
    def test_submit_claim_complete(self, tmp_path):
        queue = WorkQueue(tmp_path)
        task_id = queue.submit(sample_payload())
        assert task_id == payload_key(sample_payload())
        assert queue.pending_count() == 1

        task = queue.claim("worker-a")
        assert task is not None
        assert task.task_id == task_id
        assert task.payload == sample_payload()
        assert queue.pending_count() == 0
        assert queue.active_count() == 1

        queue.results.put(task.task_id, {"done": True})
        queue.complete(task)
        assert queue.active_count() == 0

    def test_claim_on_empty_queue(self, tmp_path):
        assert WorkQueue(tmp_path).claim() is None

    def test_submit_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path)
        first = queue.submit(sample_payload())
        second = queue.submit(sample_payload())
        assert first == second
        assert queue.pending_count() == 1

    def test_submit_skips_finished_tasks(self, tmp_path):
        queue = WorkQueue(tmp_path)
        task_id = payload_key(sample_payload())
        queue.results.put(task_id, {"done": True})
        queue.submit(sample_payload())
        assert queue.pending_count() == 0

    def test_submit_skips_active_tasks(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload())
        task = queue.claim()
        assert task is not None
        queue.submit(sample_payload())  # do not race the live worker
        assert queue.pending_count() == 0
        assert queue.active_count() == 1

    def test_claim_discards_already_finished_tasks(self, tmp_path):
        """A task whose result exists is discarded, never re-evaluated."""
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload(1))
        queue.results.put(payload_key(sample_payload(1)), {"done": True})
        assert queue.claim() is None
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_claim_drops_corrupt_task_files(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.pending_dir.mkdir(parents=True)
        (queue.pending_dir / ("ab" * 32 + ".json")).write_text(
            "{not json", encoding="utf-8"
        )
        assert queue.claim() is None
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_two_claimers_cannot_share_a_task(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload())
        assert queue.claim("worker-a") is not None
        assert queue.claim("worker-b") is None  # atomically taken

    def test_invalid_lease_ttl_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl"):
            WorkQueue(tmp_path, lease_ttl=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_lease_ttl_rejected(self, tmp_path, bad):
        # A NaN TTL passes `<= 0` (every NaN comparison is False) and
        # would silently break all lease-expiry math downstream.
        with pytest.raises(ValueError, match="finite"):
            WorkQueue(tmp_path, lease_ttl=bad)


class TestOwnership:
    """Leases and failed/ records are attributable to host + pid."""

    def test_default_owner_names_host_and_pid(self):
        assert default_owner().endswith(f"-{os.getpid()}")

    def test_lease_embeds_tag_hostname_and_pid(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload())
        task = queue.claim("alice")
        owner = lease_owner(task.lease)
        assert owner == f"alice-{default_owner()}"
        # The worker tag is optional; host-pid attribution is not.
        assert task.lease_path.name == f"{task.task_id}.{task.lease}.json"

    def test_untagged_claim_still_attributable(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload())
        task = queue.claim()
        assert lease_owner(task.lease) == default_owner()

    def test_stats_list_active_owners(self, tmp_path):
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload(1))
        queue.submit(sample_payload(2))
        a = queue.claim("alice")
        queue.claim("bob")
        stats = queue.stats()
        assert stats["pending"] == 0
        assert stats["active"] == 2
        assert stats["owners"] == sorted(
            [f"alice-{default_owner()}", f"bob-{default_owner()}"]
        )
        queue.results.put(a.task_id, {"done": True})
        queue.complete(a)
        assert queue.stats()["owners"] == [f"bob-{default_owner()}"]

    def test_failed_record_keeps_owner(self, tmp_path):
        """A quarantined task's file name still says who poisoned on it."""
        queue = WorkQueue(tmp_path)
        queue.submit(sample_payload())
        task = queue.claim("fragile-worker")
        queue.fail(task, error="boom")
        (record,) = queue.failed_dir.glob("*.json")
        assert f"fragile-worker-{default_owner()}" in record.name


class TestConcurrentClaims:
    """The atomicity claim under an actual many-thread hammer.

    ``claim`` promises exactly-one-winner via atomic rename; until this
    suite it was only exercised sequentially.  Here many threads race
    over one queue and every submitted task must be claimed exactly
    once and completed — no double claims, no losses.
    """

    def test_no_task_double_claimed_or_lost(self, tmp_path):
        queue = WorkQueue(tmp_path)
        expected = {queue.submit(sample_payload(i)) for i in range(40)}
        assert len(expected) == 40
        claimed = []
        lock = threading.Lock()
        errors = []

        def hammer(worker_id: int):
            try:
                while True:
                    task = queue.claim(f"hammer{worker_id}")
                    if task is None:
                        return
                    with lock:
                        claimed.append(task.task_id)
                    queue.results.put(task.task_id, echo_handler(task.payload))
                    queue.complete(task)
            # checks: allow-broad-except worker thread collects errors for the main-thread assert
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(claimed) == len(set(claimed))  # nobody double-claimed
        assert set(claimed) == expected  # nothing was lost
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_hammer_with_interleaved_submitters(self, tmp_path):
        """Claims racing *submissions* (and re-submissions of the same
        payloads) still deliver every task exactly once."""
        queue = WorkQueue(tmp_path)
        total = 30
        claimed = []
        lock = threading.Lock()
        errors = []

        def submit_all():
            try:
                for i in range(total):
                    queue.submit(sample_payload(i))
                    queue.submit(sample_payload(i))  # idempotent duplicate
            # checks: allow-broad-except worker thread collects errors for the main-thread assert
            except Exception as exc:
                errors.append(exc)

        stop_claiming = threading.Event()

        def hammer(worker_id: int):
            try:
                while not stop_claiming.is_set():
                    task = queue.claim(f"w{worker_id}")
                    if task is None:
                        time.sleep(0.001)
                        continue
                    with lock:
                        claimed.append(task.task_id)
                    queue.results.put(task.task_id, echo_handler(task.payload))
                    queue.complete(task)
            # checks: allow-broad-except worker thread collects errors for the main-thread assert
            except Exception as exc:
                errors.append(exc)

        claimers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(6)
        ]
        submitters = [threading.Thread(target=submit_all) for _ in range(2)]
        for thread in claimers + submitters:
            thread.start()
        for thread in submitters:
            thread.join()
        deadline = time.monotonic() + 30
        while len(claimed) < total and time.monotonic() < deadline:
            time.sleep(0.01)
        stop_claiming.set()
        for thread in claimers:
            thread.join()

        assert not errors
        # Every unique task was delivered and completed; none was lost.
        # (Unlike the claims-only hammer above, a *re-submission* racing
        # a claim may — extremely rarely — duplicate one in-flight task;
        # that costs a redundant deterministic evaluation, never a wrong
        # or missing result, so no double-claim assertion here.)
        assert set(claimed) == {
            payload_key(sample_payload(i)) for i in range(total)
        }
        for i in range(total):
            assert queue.results.get(payload_key(sample_payload(i))) == {
                "echo": i
            }


class TestLeaseExpiry:
    def test_expired_lease_is_requeued(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=60)
        queue.submit(sample_payload())
        task = queue.claim("doomed-worker")
        assert task is not None
        expire_lease(task)

        assert queue.requeue_expired() == 1
        assert queue.pending_count() == 1
        assert queue.active_count() == 0
        reclaimed = queue.claim("rescue-worker")
        assert reclaimed is not None
        assert reclaimed.task_id == task.task_id
        assert reclaimed.payload == task.payload

    def test_fresh_lease_is_left_alone(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=60)
        queue.submit(sample_payload())
        assert queue.claim() is not None
        assert queue.requeue_expired() == 0
        assert queue.active_count() == 1

    def test_extend_pushes_expiry_forward(self, tmp_path):
        queue = WorkQueue(tmp_path, lease_ttl=60)
        queue.submit(sample_payload())
        task = queue.claim()
        expire_lease(task)
        queue.extend(task)  # heartbeat mid-evaluation
        assert queue.requeue_expired() == 0
        assert queue.active_count() == 1

    def test_ttl_boundary_math_is_wall_clock_exact(self, tmp_path):
        """Pins the lease arithmetic bit-for-bit: live strictly below
        ``mtime + ttl``, expired at exactly ``mtime + ttl``, and a
        heartbeat resets the clock.  The PR 10 monotonic migration
        deliberately left this math on wall-clock file mtimes (they are
        epoch seconds shared across hosts) — this test fails if anyone
        'fixes' it to monotonic."""
        ttl = 60.0
        queue = WorkQueue(tmp_path, lease_ttl=ttl)
        queue.submit(sample_payload())
        task = queue.claim("boundary-worker")
        mtime = task.lease_path.stat().st_mtime
        # one tick before the boundary: still live
        assert queue.requeue_expired(now=mtime + ttl - 0.001) == 0
        # exactly at mtime + ttl: expired (expiry uses <=)
        assert queue.requeue_expired(now=mtime + ttl) == 1
        # heartbeat: extend() pushes the mtime forward, so the same
        # relative offset that just expired the old lease spares the
        # refreshed one
        reclaimed = queue.claim("boundary-worker")
        queue.extend(reclaimed)
        new_mtime = reclaimed.lease_path.stat().st_mtime
        assert queue.requeue_expired(now=new_mtime + ttl - 0.001) == 0
        assert queue.active_count() == 1

    def test_expired_lease_with_result_is_dropped_not_requeued(self, tmp_path):
        """A slow-but-alive worker that finished must not cause rework."""
        queue = WorkQueue(tmp_path, lease_ttl=60)
        queue.submit(sample_payload())
        task = queue.claim()
        queue.results.put(task.task_id, {"done": True})
        expire_lease(task)
        assert queue.requeue_expired() == 0
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_wall_clock_expiry(self, tmp_path):
        """Leases really do expire with time, not only via backdating."""
        queue = WorkQueue(tmp_path, lease_ttl=0.05)
        queue.submit(sample_payload())
        assert queue.claim() is not None
        time.sleep(0.1)
        assert queue.requeue_expired() == 1
        assert queue.pending_count() == 1


class TestDrain:
    def test_drain_until_empty(self, tmp_path):
        queue = WorkQueue(tmp_path)
        ids = [queue.submit(sample_payload(i)) for i in range(3)]
        completed = drain(queue, echo_handler, idle_timeout=0.0)
        assert completed == 3
        assert queue.pending_count() == 0
        assert queue.active_count() == 0
        for i, task_id in enumerate(ids):
            assert queue.results.get(task_id) == {"echo": i}

    def test_drain_respects_max_tasks(self, tmp_path):
        queue = WorkQueue(tmp_path)
        for i in range(3):
            queue.submit(sample_payload(i))
        assert drain(queue, echo_handler, max_tasks=2) == 2
        assert queue.pending_count() == 1

    def test_drain_idle_timeout_on_empty_queue(self, tmp_path):
        queue = WorkQueue(tmp_path)
        assert drain(queue, echo_handler, idle_timeout=0.0) == 0

    def test_drain_survives_poison_task(self, tmp_path, capsys):
        """A task whose evaluation raises is quarantined, not re-queued:
        re-queueing a deterministic failure would crash-loop the fleet."""
        queue = WorkQueue(tmp_path)
        for i in range(3):
            queue.submit(sample_payload(i))

        def fragile_handler(payload):
            if payload["tag"] == 1:
                raise RuntimeError("boom")
            return echo_handler(payload)

        completed = drain(queue, fragile_handler, idle_timeout=0.0)
        assert completed == 2  # the two healthy tasks
        assert queue.failed_count() == 1  # the poison one, moved aside
        assert queue.pending_count() == 0
        assert queue.active_count() == 0
        assert "boom" in capsys.readouterr().err  # traceback surfaced

    def test_heartbeat_keeps_long_task_leased(self, tmp_path):
        """A task may run far longer than the TTL: the heartbeat thread
        keeps its lease fresh, so only genuinely dead workers expire."""
        queue = WorkQueue(tmp_path, lease_ttl=0.2)
        queue.submit(sample_payload())
        observed = {}

        def slow_handler(payload):
            time.sleep(0.5)  # more than 2x the lease TTL
            observed["requeued_mid_task"] = queue.requeue_expired()
            return echo_handler(payload)

        assert drain(queue, slow_handler, idle_timeout=0.0) == 1
        assert observed["requeued_mid_task"] == 0  # lease stayed fresh
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_heartbeat_adopts_a_shrunk_lease_ttl_mid_task(self, tmp_path):
        """The beat interval is re-read every cycle, not frozen at task
        start: when a (remote) queue's TTL refresh shrinks ``lease_ttl``
        mid-task, the in-flight heartbeat must speed up within one old
        interval, or its beats would land slower than the new expiry."""
        queue = WorkQueue(tmp_path, lease_ttl=1.0)  # beat every 0.25s
        queue.submit(sample_payload())
        task = queue.claim()
        beats = []
        filesystem_extend = queue.extend
        queue.extend = lambda t: (
            beats.append(time.monotonic()),
            filesystem_extend(t),
        )
        with queue.heartbeat(task):
            queue.lease_ttl = 0.05  # as a TTL refresh would
            time.sleep(0.9)
        # Frozen at 1.0s/4 the window fits ~3 beats; adapted to
        # 0.05s/4 it fits dozens.
        assert len(beats) >= 5
        queue.complete(task)


class TestCrashRecovery:
    """A worker dying mid-task only delays its tasks — never loses them."""

    def test_sweep_completes_after_worker_death(self, tmp_path):
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        baseline = ParallelRunner().run(job)

        # A "worker" claims the first point's task... and dies: the
        # task is neither completed nor released.
        queue = WorkQueue(tmp_path, lease_ttl=60)
        queue.submit(job.point_payload(job.thetas[0]))
        doomed = queue.claim("doomed-worker")
        assert doomed is not None
        expire_lease(doomed)  # its lease has since expired

        backend = QueueBackend(queue, timeout=600)
        runner = ParallelRunner(backend=backend)
        results = runner.run(job)

        assert runner.last_report.misses == len(job.thetas)
        for a, b in zip(baseline, results):
            assert results_equal(a, b)
        # The dead worker's task was re-queued, claimed and completed.
        assert queue.results.get(doomed.task_id) is not None
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_sharded_sweep_recovers_a_dead_shard(self, tmp_path):
        job = SweepJob(network="imdb", thetas=(0.2,))
        baseline = ParallelRunner().run(job, shards=3)

        queue = WorkQueue(tmp_path, lease_ttl=60)
        queue.submit(job.point_payload(0.2, (1, 3)))
        doomed = queue.claim("doomed-worker")
        assert doomed is not None
        assert doomed.task_id == job.point_key(0.2, (1, 3))
        expire_lease(doomed)

        runner = ParallelRunner(backend=QueueBackend(queue, timeout=600))
        results = runner.run(job, shards=3)
        for a, b in zip(baseline, results):
            assert results_equal(a, b)
        assert queue.active_count() == 0

    def test_submitter_drain_surfaces_and_quarantines_poison(self, tmp_path):
        """In drain mode a failing task of our own is quarantined and
        then surfaced as QueueTaskFailed with the recorded traceback."""
        queue = WorkQueue(tmp_path)
        bad = {"kind": "sweep_point", "network": "imdb"}  # missing fields
        queue.submit(bad)
        backend = QueueBackend(queue, timeout=600)
        with pytest.raises(QueueTaskFailed, match="quarantined"):
            backend.execute([bad])
        assert queue.failed_count() == 1
        assert queue.pending_count() == 0
        assert "ValueError" in queue.failed_error(payload_key(bad))

    def test_no_drain_submitter_surfaces_worker_quarantine(self, tmp_path):
        """A task a worker quarantined must raise immediately for its
        submitter — not hang until the timeout with a misleading
        'are any workers running?' message."""
        queue = WorkQueue(tmp_path)
        payload = SweepJob(network="imdb", thetas=(0.1,)).point_payload(0.1)
        queue.submit(payload)
        doomed = queue.claim("worker")
        queue.fail(doomed, error="RuntimeError: boom on a worker")

        backend = QueueBackend(queue, drain=False, timeout=600)
        with pytest.raises(QueueTaskFailed, match="boom on a worker"):
            backend.execute([payload])

    def test_foreign_poison_does_not_abort_healthy_sweep(self, tmp_path):
        """Another submitter's poison payload must not crash this one's
        sweep: the drain quarantines it and keeps going."""
        queue = WorkQueue(tmp_path)
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        # Claims go in task-key order: pick a poison payload whose key
        # sorts before every point of the sweep, so the drain meets it
        # first whatever the payloads' CACHE_VERSION.
        first = min(payload_key(job.point_payload(theta)) for theta in job.thetas)
        poison = next(
            payload
            for payload in (
                {"kind": "teleport", "from": f"someone-else-{n}"} for n in range(256)
            )
            if payload_key(payload) < first
        )
        queue.submit(poison)
        baseline = ParallelRunner().run(job)
        results = ParallelRunner(
            backend=QueueBackend(queue, timeout=600)
        ).run(job)
        for a, b in zip(baseline, results):
            assert results_equal(a, b)
        assert queue.failed_count() == 1  # the foreign task, moved aside

    def test_live_lease_defers_timeout(self, tmp_path):
        """A live worker holding one of our leases counts as progress:
        the timeout must not fire while the task is in good hands."""
        import threading

        queue = WorkQueue(tmp_path, lease_ttl=3600)
        payload = sample_payload()
        queue.submit(payload)
        task = queue.claim("slow-but-alive-worker")
        assert task is not None

        def finish_late():
            time.sleep(0.6)  # slower than the submitter's timeout
            queue.results.put(task.task_id, {"ok": True})
            queue.complete(task)

        thread = threading.Thread(target=finish_late)
        thread.start()
        backend = QueueBackend(
            queue, drain=False, timeout=0.2, poll_interval=0.01
        )
        assert backend.execute([payload]) == [{"ok": True}]
        thread.join()

    def test_stuck_queue_times_out_after_lease_expiry(self, tmp_path):
        """Dead worker, no fleet, no drain: the expired lease is
        re-queued (progress, clock reset) but with nobody to claim it
        the submitter eventually gives up."""
        queue = WorkQueue(tmp_path, lease_ttl=0.1)
        payload = SweepJob(network="imdb", thetas=(0.1,)).point_payload(0.1)
        queue.submit(payload)
        assert queue.claim("dead-worker") is not None

        backend = QueueBackend(
            queue, drain=False, timeout=0.3, poll_interval=0.01
        )
        with pytest.raises(QueueDrainTimeout, match="unresolved"):
            backend.execute([payload])
        assert queue.pending_count() == 1  # recovered, awaiting a claim
