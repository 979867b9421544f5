"""Tests for the command-line interface."""

import pytest

import repro.runner.transport.client as client_module
from repro.cli import build_parser, main
from repro.runner import (
    DEFAULT_COORDINATOR_PORT,
    DEFAULT_LEASE_TTL,
    DEFAULT_QUEUE_DIR,
    CoordinatorServer,
    SweepJob,
    WorkQueue,
    payload_key,
)
from repro.runner.transport import http_common
from repro.runner.transport.server import _ROUTES


def record_gunzips(monkeypatch):
    """Sizes of the gzip request bodies the coordinator inflates."""
    inflated = []
    gunzip_capped = http_common.gunzip_capped

    def recording(raw, limit):
        body = gunzip_capped(raw, limit)
        inflated.append(len(body))
        return body

    monkeypatch.setattr(http_common, "gunzip_capped", recording)
    return inflated


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "resnet"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "imdb"])
        assert args.predictor == "bnn"
        assert not args.no_throttle
        assert args.jobs == 1
        assert args.shards == 1
        assert not args.no_cache
        assert args.cache_dir == ".repro_cache"
        assert args.seed == 0

    def test_shards_flag_parsed_on_sweep_e2e_report(self):
        for argv in (
            ["sweep", "imdb", "--shards", "4"],
            ["e2e", "imdb", "--shards", "4"],
            ["report", "--shards", "4"],
        ):
            assert build_parser().parse_args(argv).shards == 4

    def test_e2e_has_runner_flags(self):
        args = build_parser().parse_args(
            ["e2e", "imdb", "--jobs", "4", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.no_cache

    def test_backend_flag_parsed_on_sweep_e2e_report(self):
        for argv in (
            ["sweep", "imdb"],
            ["e2e", "imdb"],
            ["report"],
        ):
            args = build_parser().parse_args(argv)
            assert args.backend is None  # auto: process iff --jobs > 1
            assert args.queue_dir == DEFAULT_QUEUE_DIR
            assert args.lease_ttl == DEFAULT_LEASE_TTL
            assert not args.no_drain
            assert args.queue_timeout is None
            queued = build_parser().parse_args(
                argv + ["--backend", "queue", "--queue-dir", "/tmp/q"]
            )
            assert queued.backend == "queue"
            assert queued.queue_dir == "/tmp/q"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "imdb", "--backend", "osmosis"])

    def test_worker_defaults(self):
        args = build_parser().parse_args(["worker"])
        assert args.queue_dir == DEFAULT_QUEUE_DIR
        assert args.lease_ttl == DEFAULT_LEASE_TTL
        assert args.max_tasks is None
        assert args.idle_timeout is None
        assert args.poll_interval == 0.1
        assert args.coordinator is None
        assert args.token_file is None

    def test_coordinator_defaults(self):
        args = build_parser().parse_args(["coordinator"])
        assert args.queue_dir == DEFAULT_QUEUE_DIR
        assert args.lease_ttl == DEFAULT_LEASE_TTL
        assert args.host == "0.0.0.0"
        assert args.port == DEFAULT_COORDINATOR_PORT
        assert args.token_file is None

    def test_coordinator_flags_parsed(self):
        args = build_parser().parse_args(
            ["coordinator", "--queue-dir", "/tmp/q", "--port", "9999",
             "--host", "127.0.0.1", "--token-file", "/tmp/tok"]
        )
        assert args.queue_dir == "/tmp/q"
        assert args.port == 9999
        assert args.host == "127.0.0.1"
        assert args.token_file == "/tmp/tok"

    def test_http_backend_flags_parsed_on_sweep_e2e_report(self):
        for argv in (["sweep", "imdb"], ["e2e", "imdb"], ["report"]):
            args = build_parser().parse_args(
                argv + ["--backend", "http",
                        "--coordinator", "http://10.0.0.5:8642",
                        "--token-file", "/tmp/tok"]
            )
            assert args.backend == "http"
            assert args.coordinator == "http://10.0.0.5:8642"
            assert args.token_file == "/tmp/tok"


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "deepspeech2" in out and "29.8 bleu" in out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "64.6" in out and "66.8" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "eesen", "--reuse", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "energy savings" in out

    def test_simulate_rejects_bad_reuse(self):
        with pytest.raises(SystemExit):
            main(["simulate", "eesen", "--reuse", "1.5"])

    def test_sweep_runs_tiny_network(self, capsys):
        """Uses the cached tiny IMDB model (trains once per session)."""
        assert main(["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "accuracy loss" in out
        assert "0.1" in out and "0.3" in out

    def test_e2e_runs_tiny_network(self, capsys):
        assert main(["e2e", "imdb", "--no-cache", "--loss-target", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "calibrated theta" in out and "speedup" in out

    def test_sweep_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["sweep", "imdb", "--jobs", "0", "--no-cache"])

    def test_sweep_rejects_bad_shards(self):
        with pytest.raises(SystemExit):
            main(["sweep", "imdb", "--shards", "0", "--no-cache"])


class TestRunnerIntegration:
    def test_parallel_sweep_matches_serial(self, capsys):
        """`repro sweep --jobs 2` must print the exact serial table."""
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_sharded_sweep_matches_serial(self, capsys):
        """`repro sweep --shards 4` must print the exact serial table."""
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--shards", "4"]) == 0
        sharded = capsys.readouterr().out
        assert sharded == serial

    def test_sharded_e2e_matches_serial(self, capsys):
        argv = ["e2e", "imdb", "--no-cache", "--loss-target", "2.0"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--shards", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_explicit_serial_backend_matches_default(self, capsys):
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--backend", "serial"]) == 0
        assert capsys.readouterr().out == default

    def test_serial_backend_rejects_jobs(self):
        with pytest.raises(SystemExit, match="incompatible"):
            main(
                ["sweep", "imdb", "--no-cache", "--backend", "serial",
                 "--jobs", "2"]
            )

    def test_queue_backend_rejects_jobs(self):
        """--jobs only parameterises the process backend; accepting it
        silently for queue would promise parallelism that never runs."""
        with pytest.raises(SystemExit, match="incompatible"):
            main(
                ["sweep", "imdb", "--no-cache", "--backend", "queue",
                 "--jobs", "8"]
            )

    def test_bad_lease_ttl_rejected(self):
        with pytest.raises(SystemExit, match="lease-ttl"):
            main(["sweep", "imdb", "--no-cache", "--lease-ttl", "0"])

    def test_cached_sweep_matches_uncached(self, capsys, tmp_path):
        argv = ["sweep", "imdb", "--thetas", "0.1", "0.3"]
        assert main(argv + ["--no-cache"]) == 0
        uncached = capsys.readouterr().out
        cached = argv + ["--cache-dir", str(tmp_path)]
        assert main(cached) == 0  # cold: populates the cache
        assert capsys.readouterr().out == uncached
        assert main(cached) == 0  # warm: served from disk
        assert capsys.readouterr().out == uncached
        assert any(tmp_path.glob("*/*.json"))


class TestQueueBackendCLI:
    def test_queue_sweep_matches_serial(self, capsys, tmp_path):
        """`--backend queue` (self-draining) prints the exact serial table."""
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        queue_argv = argv + [
            "--backend", "queue",
            "--queue-dir", str(tmp_path / "queue"),
            "--queue-timeout", "600",
        ]
        assert main(queue_argv) == 0
        assert capsys.readouterr().out == serial

    def test_queue_sweep_with_shards_matches_serial(self, capsys, tmp_path):
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        queue_argv = argv + [
            "--backend", "queue", "--shards", "3",
            "--queue-dir", str(tmp_path / "queue"),
            "--queue-timeout", "600",
        ]
        assert main(queue_argv) == 0
        assert capsys.readouterr().out == serial

    def test_worker_drains_prepopulated_queue(self, capsys, tmp_path):
        """`repro worker` claims, evaluates and stores a submitted task."""
        queue = WorkQueue(tmp_path / "queue")
        job = SweepJob(network="imdb", thetas=(0.1,))
        task_id = queue.submit(job.point_payload(0.1))
        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--max-tasks", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "drained 1 task(s)" in out
        assert queue.results.get(task_id) is not None
        assert queue.pending_count() == 0
        assert queue.active_count() == 0

    def test_worker_quarantines_foreign_payloads(self, capsys, tmp_path):
        """Foreign CACHE_VERSIONs and non-canonical payloads are
        quarantined in failed/, never evaluated and never crash-looped."""
        queue = WorkQueue(tmp_path / "queue")
        job = SweepJob(network="imdb", thetas=(0.1,))
        good_id = payload_key(job.point_payload(0.1))
        # Tasks are claimed in task-id order; pick a nonce that makes
        # the poison task sort first so the worker must hit it.
        poison = {"kind": "teleport", "nonce": 0}
        while payload_key(poison) > good_id:
            poison["nonce"] += 1
        queue.submit(poison)
        assert queue.submit(job.point_payload(0.1)) == good_id
        # Non-zero exit: scripted multi-host deployments detect poison
        # tasks from the exit code alone.
        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--max-tasks", "1"]
        ) == 1
        captured = capsys.readouterr()
        assert "drained 1 task(s)" in captured.out
        assert "1 task(s) quarantined in failed/" in captured.out
        assert "cache_version" in captured.err  # traceback surfaced
        assert queue.results.get(good_id) is not None
        assert queue.failed_count() == 1
        assert queue.pending_count() == 0

    def test_worker_exit_code_counts_only_own_quarantines(
        self, capsys, tmp_path
    ):
        """A quarantine by *another* worker while this one drains
        cleanly must not flip this worker's exit code: blame follows
        the worker that hit the poison, not the whole fleet."""
        queue = WorkQueue(tmp_path / "queue")
        job = SweepJob(network="imdb", thetas=(0.1,))
        good_id = payload_key(job.point_payload(0.1))
        # Claims go in task-id order; make the poison task sort first
        # so the "other worker" deterministically picks it up.
        poison = {"kind": "teleport", "nonce": 0}
        while payload_key(poison) > good_id:
            poison["nonce"] += 1
        queue.submit(poison)
        queue.submit(job.point_payload(0.1))
        other = queue.claim("other-worker")
        assert other.payload["kind"] == "teleport"
        # The other worker quarantines its poison task mid-run.
        queue.fail(other, error="someone else's poison")
        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--max-tasks", "1"]
        ) == 0  # this worker drained only the healthy task
        out = capsys.readouterr().out
        assert "drained 1 task(s)" in out
        assert "quarantined" not in out

    def test_worker_exit_code_ignores_preexisting_quarantine(
        self, capsys, tmp_path
    ):
        """Only quarantines from *this run* flip the exit code: a worker
        that drained cleanly next to an old failed/ record exits 0."""
        queue = WorkQueue(tmp_path / "queue")
        queue.submit({"kind": "teleport"})
        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--idle-timeout", "0"]
        ) == 1  # the run that quarantined it fails loudly ...
        capsys.readouterr()
        job = SweepJob(network="imdb", thetas=(0.1,))
        queue.submit(job.point_payload(0.1))
        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--max-tasks", "1"]
        ) == 0  # ... later clean runs do not re-report it
        out = capsys.readouterr().out
        assert "drained 1 task(s)" in out
        assert "quarantined" not in out

    def test_worker_idle_timeout_on_empty_queue(self, capsys, tmp_path):
        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--idle-timeout", "0"]
        ) == 0
        assert "drained 0 task(s)" in capsys.readouterr().out

    def test_worker_rejects_bad_flags(self, tmp_path):
        with pytest.raises(SystemExit, match="lease-ttl"):
            main(["worker", "--queue-dir", str(tmp_path), "--lease-ttl", "0"])
        with pytest.raises(SystemExit, match="max-tasks"):
            main(["worker", "--queue-dir", str(tmp_path), "--max-tasks", "0"])

    def test_worker_logs_owner_identity(self, capsys, tmp_path):
        """Logs name the worker's hostname-pid owner id, so multi-host
        output is attributable."""
        from repro.runner import default_owner

        assert main(
            ["worker", "--queue-dir", str(tmp_path / "queue"),
             "--idle-timeout", "0"]
        ) == 0
        assert default_owner() in capsys.readouterr().out


class TestHttpCLI:
    """The http backend and network worker, end to end over the CLI."""

    @pytest.fixture()
    def coordinator(self, tmp_path):
        server = CoordinatorServer(
            WorkQueue(tmp_path / "queue", lease_ttl=60), port=0, quiet=True
        )
        server.serve_in_thread()
        yield server
        server.stop()

    def test_http_sweep_matches_serial(self, capsys, coordinator):
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(
            argv + ["--backend", "http", "--coordinator", coordinator.url,
                    "--queue-timeout", "600"]
        ) == 0
        assert capsys.readouterr().out == serial

    def test_http_sweep_with_forced_gzip_matches_serial(
        self, capsys, coordinator, monkeypatch
    ):
        """With the gzip threshold forced to zero on both sides, every
        request and reply body is compressed, and the sweep still
        equals serial."""
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        inflated = record_gunzips(monkeypatch)
        monkeypatch.setattr(client_module, "GZIP_MIN_BYTES", 0)
        monkeypatch.setattr(http_common, "GZIP_MIN_BYTES", 0)
        assert main(
            argv + ["--backend", "http", "--coordinator", coordinator.url,
                    "--queue-timeout", "600"]
        ) == 0
        assert capsys.readouterr().out == serial
        posts = sum(
            count for path, count in coordinator.request_counts.items()
            if _ROUTES[path][0] == "POST"
        )
        assert len(inflated) == posts > 0

    def test_http_sweep_with_shards_matches_serial(
        self, capsys, coordinator, monkeypatch
    ):
        """Under the default rule the 6-payload ``batch/submit`` crosses
        1 KiB, so this sweep travels partly gzipped and equals serial."""
        argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1", "0.3"]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        inflated = record_gunzips(monkeypatch)
        assert main(
            argv + ["--backend", "http", "--coordinator", coordinator.url,
                    "--shards", "3", "--queue-timeout", "600"]
        ) == 0
        assert capsys.readouterr().out == serial
        assert inflated
        assert min(inflated) >= http_common.GZIP_MIN_BYTES

    def test_network_worker_drains_submitted_task(self, capsys, coordinator):
        job = SweepJob(network="imdb", thetas=(0.1,))
        task_id = coordinator.queue.submit(job.point_payload(0.1))
        assert main(
            ["worker", "--coordinator", coordinator.url, "--max-tasks", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "drained 1 task(s)" in out
        assert coordinator.url in out  # logs say where it drained from
        assert coordinator.queue.results.get(task_id) is not None

    def test_token_auth_round_trip(self, capsys, tmp_path):
        token_file = tmp_path / "token"
        token_file.write_text("s3cret\n", encoding="utf-8")
        server = CoordinatorServer(
            WorkQueue(tmp_path / "queue", lease_ttl=60),
            port=0,
            token="s3cret",
            quiet=True,
        )
        server.serve_in_thread()
        try:
            argv = ["sweep", "imdb", "--no-cache", "--thetas", "0.1"]
            assert main(argv) == 0
            serial = capsys.readouterr().out
            assert main(
                argv + ["--backend", "http", "--coordinator", server.url,
                        "--token-file", str(token_file),
                        "--queue-timeout", "600"]
            ) == 0
            assert capsys.readouterr().out == serial
        finally:
            server.stop()

    def test_coordinator_command_serves_until_interrupted(
        self, capsys, tmp_path, monkeypatch
    ):
        """`repro coordinator` binds, announces its URL, serves until
        Ctrl-C, and reports the final queue state."""
        served = {}

        def fake_serve_forever(self):
            served["url"] = self.url  # really bound: URL has a port
            raise KeyboardInterrupt

        monkeypatch.setattr(
            CoordinatorServer, "serve_forever", fake_serve_forever
        )
        assert main(
            ["coordinator", "--queue-dir", str(tmp_path / "queue"),
             "--host", "127.0.0.1", "--port", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert served["url"] in out
        assert "NO auth" in out  # warns when serving unauthenticated
        assert "coordinator stopped" in out
        assert "0 pending" in out

    def test_http_backend_requires_coordinator(self):
        with pytest.raises(SystemExit, match="--coordinator"):
            main(["sweep", "imdb", "--no-cache", "--backend", "http"])

    def test_http_backend_rejects_jobs(self):
        with pytest.raises(SystemExit, match="incompatible"):
            main(
                ["sweep", "imdb", "--no-cache", "--backend", "http",
                 "--coordinator", "http://127.0.0.1:1", "--jobs", "4"]
            )

    def test_missing_token_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="token-file"):
            main(
                ["sweep", "imdb", "--no-cache", "--backend", "http",
                 "--coordinator", "http://127.0.0.1:1",
                 "--token-file", str(tmp_path / "absent")]
            )

    def test_empty_token_file_rejected(self, tmp_path):
        empty = tmp_path / "token"
        empty.write_text("  \n", encoding="utf-8")
        with pytest.raises(SystemExit, match="empty"):
            main(
                ["worker", "--coordinator", "http://127.0.0.1:1",
                 "--token-file", str(empty), "--idle-timeout", "0"]
            )
