"""Backend-equivalence suite: every execution backend is bitwise identical.

The acceptance bar of the pluggable-backend subsystem: for seeded random
mini-sweeps (networks x thetas x shard counts 1..4), the serial,
process-pool, work-queue and http backends return **exactly** (bitwise,
not approximately) the same results — quality, quality loss, reuse
fraction, and per-(layer, gate) reuse counts — and those results agree
with the checked-in PR 2 golden JSON, so all backends cannot drift
together unnoticed either.  The http runs go through a real
``CoordinatorServer`` on a localhost socket, including the
crash-recovery paths: a worker that dies mid-task over HTTP, and a
coordinator that restarts mid-sweep.
"""

import json
import os
import random
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.models.benchmark import MemoizedResult
from repro.models.specs import BENCHMARK_NAMES
from repro.runner import (
    CoordinatorServer,
    HttpBackend,
    ParallelRunner,
    ProcessBackend,
    QueueBackend,
    RemoteWorkQueue,
    ResultCache,
    SerialBackend,
    SweepJob,
    WorkQueue,
    make_backend,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_seed.json"

#: The thetas the PR 2 golden file pins (per network, unsharded serial
#: path at seed 0).
GOLDEN_THETAS = (0.05, 0.3)


def results_equal(a: MemoizedResult, b: MemoizedResult) -> bool:
    return (
        a.quality == b.quality
        and a.quality_loss == b.quality_loss
        and a.reuse_fraction == b.reuse_fraction
        and a.stats.reused == b.stats.reused
        and a.stats.total == b.stats.total
    )


@pytest.fixture(scope="module")
def process_backend():
    """One shared 2-process pool so workers train each tiny net once."""
    backend = ProcessBackend(jobs=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@contextmanager
def coordinator(queue_dir, lease_ttl=60.0, port=0):
    """A live coordinator over ``queue_dir`` on a real localhost socket."""
    server = CoordinatorServer(
        WorkQueue(queue_dir, lease_ttl=lease_ttl), port=port, quiet=True
    )
    server.serve_in_thread()
    try:
        yield server
    finally:
        server.stop()


def run_all_backends(job, shards, process_backend, tmp_path):
    """The same job under serial / process / queue / http, per backend."""
    serial = ParallelRunner(backend=SerialBackend()).run(job, shards=shards)
    process = ParallelRunner(backend=process_backend).run(job, shards=shards)
    queue_backend = QueueBackend(tmp_path / "queue", timeout=600)
    queued = ParallelRunner(backend=queue_backend).run(job, shards=shards)
    with coordinator(tmp_path / "http_queue") as server:
        http_backend = HttpBackend(server.url, timeout=600)
        http = ParallelRunner(backend=http_backend).run(job, shards=shards)
    return serial, process, queued, http


class TestBackendEquivalence:
    """serial == process == queue == http, bitwise, for random mini-sweeps."""

    @pytest.mark.parametrize("name", tuple(BENCHMARK_NAMES))
    def test_backends_identical_and_match_golden(
        self, name, process_backend, golden, tmp_path
    ):
        # crc32, not hash(): PYTHONHASHSEED must not change what we cover.
        rng = random.Random(zlib.crc32(name.encode()) ^ 0xB0A)
        shards = rng.randint(1, 4)
        job = SweepJob(
            network=name,
            thetas=GOLDEN_THETAS,
            seed=golden["seed"],
            scale=golden["scale"],
            predictor=golden["predictor"],
        )
        serial, process, queued, http = run_all_backends(
            job, shards, process_backend, tmp_path
        )
        for a, b, c, d in zip(serial, process, queued, http):
            assert results_equal(a, b)
            assert results_equal(a, c)
            assert results_equal(a, d)
        # ... and none of them drifted from the PR 2 golden numbers.
        for theta, result in zip(job.thetas, serial):
            expected = golden["networks"][name][str(theta)]
            assert result.quality_loss == pytest.approx(
                expected["quality_loss"], rel=1e-9, abs=1e-12
            ), (name, theta, shards)
            assert result.reuse_fraction == pytest.approx(
                expected["reuse_fraction"], rel=1e-9, abs=1e-12
            ), (name, theta, shards)

    def test_random_theta_grids_and_splits(self, process_backend, tmp_path):
        """Property sweep: random grids, splits and shard counts agree."""
        rng = random.Random(20260728)
        grid = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5)
        for trial in range(3):
            thetas = tuple(sorted(rng.sample(grid, rng.randint(1, 3))))
            job = SweepJob(
                network=rng.choice(("imdb", "mnmt")),
                thetas=thetas,
                calibration=rng.random() < 0.5,
            )
            shards = rng.randint(1, 4)
            serial, process, queued, http = run_all_backends(
                job, shards, process_backend, tmp_path / str(trial)
            )
            assert len(serial) == len(thetas)
            for a, b, c, d in zip(serial, process, queued, http):
                assert results_equal(a, b), (trial, job)
                assert results_equal(a, c), (trial, job)
                assert results_equal(a, d), (trial, job)

    def test_queue_backend_populates_runner_cache(self, tmp_path):
        """Queue results land in the runner's own cache like any backend's."""
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        backend = QueueBackend(tmp_path / "queue", timeout=600)
        runner = ParallelRunner(
            cache=ResultCache(tmp_path / "cache"), backend=backend
        )
        first = runner.run(job)
        assert runner.last_report.misses == len(job.thetas)
        warm = ParallelRunner(cache=ResultCache(tmp_path / "cache"))
        second = warm.run(job)
        assert warm.last_report.evaluated == 0
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_reuse_results_false_forces_fresh_evaluation(self, tmp_path):
        """`--no-cache` must really re-run: pre-existing queue results
        are discarded, not served."""
        from repro.runner import WorkQueue, payload_key

        job = SweepJob(network="imdb", thetas=(0.1,))
        payload = job.point_payload(0.1)
        queue = WorkQueue(tmp_path / "queue")
        queue.results.put(payload_key(payload), {"planted": True})

        reusing = QueueBackend(queue, timeout=600)
        assert reusing.execute([payload]) == [{"planted": True}]

        fresh_backend = QueueBackend(queue, timeout=600, reuse_results=False)
        fresh = fresh_backend.execute([payload])[0]
        assert "planted" not in fresh
        baseline = ParallelRunner().run(job)[0]
        assert fresh["quality"] == baseline.quality

    def test_queue_backend_reuses_queue_results(self, tmp_path):
        """A second uncached run resolves from the queue's result store."""
        job = SweepJob(network="imdb", thetas=(0.1,))
        first = ParallelRunner(
            backend=QueueBackend(tmp_path / "queue", timeout=600)
        ).run(job)
        backend = QueueBackend(tmp_path / "queue", timeout=600)
        second = ParallelRunner(backend=backend).run(job)
        assert backend.queue.pending_count() == 0  # nothing re-submitted
        for a, b in zip(first, second):
            assert results_equal(a, b)


class TestHttpBackend:
    """The http backend against a live coordinator on real sockets."""

    def test_http_backend_populates_runner_cache(self, tmp_path):
        """HTTP results land in the runner's own cache like any backend's."""
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        with coordinator(tmp_path / "queue") as server:
            backend = HttpBackend(server.url, timeout=600)
            runner = ParallelRunner(
                cache=ResultCache(tmp_path / "cache"), backend=backend
            )
            first = runner.run(job)
            assert runner.last_report.misses == len(job.thetas)
            assert runner.last_report.backend == "http"
        warm = ParallelRunner(cache=ResultCache(tmp_path / "cache"))
        second = warm.run(job)
        assert warm.last_report.evaluated == 0
        for a, b in zip(first, second):
            assert results_equal(a, b)

    def test_external_worker_drains_no_drain_submitter(self, tmp_path):
        """A network-attached `drain` worker does all the evaluation for
        a coordinate-only (--no-drain) submitter."""
        from repro.runner import drain, evaluate_task

        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        baseline = ParallelRunner().run(job)
        with coordinator(tmp_path / "queue") as server:
            worker_queue = RemoteWorkQueue(server.url)
            done = {}

            def work():
                # max_tasks bounds the exit (the submitter never
                # evaluates here, so this worker gets both tasks);
                # idle_timeout is only the safety net against a hang.
                done["count"] = drain(
                    worker_queue, evaluate_task, max_tasks=len(job.thetas),
                    idle_timeout=60.0, poll_interval=0.05,
                )

            thread = threading.Thread(target=work, daemon=True)
            thread.start()
            backend = HttpBackend(server.url, drain=False, timeout=600)
            results = ParallelRunner(backend=backend).run(job)
            thread.join(timeout=60)
        for a, b in zip(baseline, results):
            assert results_equal(a, b)
        assert done["count"] == len(job.thetas)

    def test_sweep_completes_after_worker_death_over_http(self, tmp_path):
        """A remote worker claims over HTTP and dies: lease expiry must
        recover the task and the sweep must finish bitwise-correct."""
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        baseline = ParallelRunner().run(job)
        with coordinator(tmp_path / "queue") as server:
            doomed_worker = RemoteWorkQueue(server.url)
            doomed_worker.submit_many([job.point_payload(job.thetas[0])])
            doomed = doomed_worker.claim("doomed")
            assert doomed is not None
            # ... and the worker dies: back-date its lease on the
            # coordinator's disk so the heartbeat looks long gone.
            lease_file = server.queue.active_dir / (
                f"{doomed.task_id}.{doomed.lease}.json"
            )
            # checks: allow-wall-clock lease files expire by mtime, which is wall-clock epoch seconds
            past = time.time() - 10_000
            os.utime(lease_file, (past, past))

            backend = HttpBackend(server.url, timeout=600)
            runner = ParallelRunner(backend=backend)
            results = runner.run(job)
            assert runner.last_report.misses == len(job.thetas)
            for a, b in zip(baseline, results):
                assert results_equal(a, b)
            assert server.queue.results.get(doomed.task_id) is not None
            assert server.queue.pending_count() == 0
            assert server.queue.active_count() == 0

    def test_coordinator_restart_mid_sweep(self, tmp_path):
        """Queue state lives on disk: a coordinator replaced mid-sweep
        (same port, new process-equivalent) loses nothing — pending
        tasks, live leases and stored results all survive."""
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        baseline = ParallelRunner().run(job)
        queue_dir = tmp_path / "queue"

        first = CoordinatorServer(
            WorkQueue(queue_dir, lease_ttl=60), port=0, quiet=True
        )
        first.serve_in_thread()
        port = first.server_address[1]
        client = RemoteWorkQueue(first.url, backoff=0.1)
        client.submit_many([job.point_payload(theta) for theta in job.thetas])
        in_flight = client.claim("survivor")
        assert in_flight is not None
        first.stop()  # the coordinator dies mid-sweep ...

        second = CoordinatorServer(
            WorkQueue(queue_dir, lease_ttl=60), port=port, quiet=True
        )
        second.serve_in_thread()
        try:
            # ... the in-flight worker's lease survives: it finishes its
            # task against the replacement through the same client.
            from repro.runner import evaluate_task

            output = evaluate_task(in_flight.payload)
            client.results.put(in_flight.task_id, output)
            client.complete(in_flight)
            # The rest of the sweep drains normally over the new server.
            backend = HttpBackend(second.url, timeout=600)
            results = ParallelRunner(backend=backend).run(job)
            for a, b in zip(baseline, results):
                assert results_equal(a, b)
            assert second.queue.pending_count() == 0
            assert second.queue.active_count() == 0
        finally:
            second.stop()

    def test_coordinator_restart_under_a_live_submitter(self, tmp_path):
        """Restart the coordinator *while* execute() is running: the
        client's bounded retries must ride out the gap."""
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        baseline = ParallelRunner().run(job)
        queue_dir = tmp_path / "queue"
        first = CoordinatorServer(
            WorkQueue(queue_dir, lease_ttl=60), port=0, quiet=True
        )
        first.serve_in_thread()
        port = first.server_address[1]
        replacement = {}

        def restart_soon():
            time.sleep(0.3)
            first.stop()
            server = CoordinatorServer(
                WorkQueue(queue_dir, lease_ttl=60), port=port, quiet=True
            )
            server.serve_in_thread()
            replacement["server"] = server

        thread = threading.Thread(target=restart_soon)
        thread.start()
        try:
            backend = HttpBackend(first.url, timeout=600)
            results = ParallelRunner(backend=backend).run(job)
            for a, b in zip(baseline, results):
                assert results_equal(a, b)
        finally:
            thread.join()
            replacement["server"].stop()


class TestRunReportBackend:
    def test_report_names_backend(self, process_backend):
        job = SweepJob(network="imdb", thetas=(0.1, 0.3))
        runner = ParallelRunner(backend=process_backend)
        runner.run(job)
        assert runner.last_report.backend == "process"
        assert runner.last_report.workers == 2
        serial = ParallelRunner()
        serial.run(job)
        assert serial.last_report.backend == "serial"
        assert serial.last_report.workers == 1

    def test_single_payload_falls_back_in_process(self, process_backend):
        runner = ParallelRunner(backend=process_backend)
        runner.run(SweepJob(network="imdb", thetas=(0.1,)))
        assert runner.last_report.workers == 1  # pool round-trip skipped


class TestMakeBackend:
    def test_builds_each_backend(self, tmp_path):
        assert isinstance(make_backend("serial"), SerialBackend)
        process = make_backend("process", jobs=3)
        assert isinstance(process, ProcessBackend) and process.jobs == 3
        queued = make_backend("queue", queue_dir=tmp_path, lease_ttl=5.0)
        assert isinstance(queued, QueueBackend)
        assert queued.queue.lease_ttl == 5.0
        http = make_backend(
            "http", coordinator="http://127.0.0.1:1", token="t0ken"
        )
        assert isinstance(http, HttpBackend)
        assert http.queue.url == "http://127.0.0.1:1"
        assert http.queue.token == "t0ken"

    def test_http_backend_requires_coordinator(self):
        with pytest.raises(ValueError, match="coordinator"):
            make_backend("http")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("carrier-pigeon")

    def test_default_runner_backends(self):
        assert ParallelRunner(jobs=1).backend.name == "serial"
        with ParallelRunner(jobs=2) as runner:
            assert runner.backend.name == "process"
            assert runner.jobs == 2
