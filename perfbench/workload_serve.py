"""serve-imdb: closed-loop HTTP inference against ``repro serve``.

The server is ``repro serve imdb --scale tiny`` with its defaults (one
replica, 2 ms coalescing window), started as a subprocess on an
ephemeral loopback port; set-up time runs from launch until
``/api/v1/health`` answers, which includes training the tiny model.
The benchmark process is the client: two connections (one per core),
each sending its next request only after the previous reply, each
request an ``/api/v1/infer`` of 1-4 test-split rows drawn from the
seeded schedule.  Every :data:`RETUNE_EVERY` requests, the client first
sends a ``PUT /api/v1/theta`` alternating between two thresholds, which
drains and re-wraps the replica pool.

The run lasts the requested seconds and at least until
:data:`MIN_SAMPLES` latencies are in, so that p99 has ten samples beyond
it, and :data:`MIN_PER_SIZE` for every request size.  ``throughput`` is
the request rate of the two connections at the fastest latency each
request size reached: ``CONNECTIONS`` over the mean, across sizes, of
the :data:`FAST_PCT`-th percentile latency of that size.  Requests are
short units of a few milliseconds, and like the laps of the in-process
workloads their fastest times read the same from run to run, where the
run's mean rate follows the share of time the host spent slowed.
Client latencies and the serving stages, from the server's own
``timings_ms`` and ``/api/v1/metrics``, which are always on, are
per-layer metrics, so the traced run is the measured run.

Verification, each counted as one attempted operation: every response
equals the offline memoized batch path under the scheme version that
served it (as ``repro loadgen --verify`` checks), and every HTTP error
counts as a failure.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from benchlib import (
    Metrics,
    Outcome,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    pin,
    quiet_cpus,
    request_schedule,
)

from repro.models.zoo import build_benchmark
from repro.serve.loadgen import (
    ServeClient,
    ServeError,
    expected_outputs,
    scheme_from_info,
)

NAME = "serve-imdb"
NETWORK, SCALE, MODEL_SEED = "imdb", "tiny", 0
CONNECTIONS = 2
SETUP_REPEATS = 9
RETUNE_EVERY = 500
RETUNE_THETAS = (0.1, 0.05)
#: p99 needs ten samples beyond it.
MIN_SAMPLES = 1000
#: Throughput takes this percentile of each request size's latencies,
#: which needs ten samples below it.
FAST_PCT = 2
MIN_PER_SIZE = 500
MAX_ROWS = 4
SCHEDULE_LENGTH = 50_000
START_TIMEOUT_S = 120.0
STAGES = ("validate", "queue_wait", "gather", "forward", "finalize", "collect")

_URL = re.compile(r"serving \S+ at (http://\S+) ")


class Server:
    """One ``repro serve`` subprocess logging into ``workdir``."""

    def __init__(self, root: Path, workdir: Path, index: int):
        self.out_path = workdir / f"serve-{index}.out"
        self.err_path = workdir / f"serve-{index}.err"
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", NETWORK, "--scale", SCALE,
                 "--seed", str(MODEL_SEED), "--port", "0"],
                cwd=root,
                env=_child_env(root),
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )
        pin(quiet_cpus()[0], self.proc.pid)
        self.url: Optional[str] = None

    def wait_ready(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                tail = self.err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
                raise RuntimeError(f"server exited with {self.proc.returncode}: {tail}")
            if self.url is None:
                found = _URL.search(self.out_path.read_text(encoding="utf-8", errors="replace"))
                self.url = found.group(1) if found else None
            if self.url is not None:
                try:
                    if ServeClient(self.url, timeout=5.0).get("/api/v1/health").get("ok"):
                        return
                except ServeError:
                    pass
            time.sleep(0.005)
        raise RuntimeError(f"server not healthy after {START_TIMEOUT_S:.0f}s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _child_env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_server(root: Path, workdir: Path, index: int) -> Tuple[Server, float]:
    start = perf_counter()
    server = Server(root, workdir, index)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    return server, perf_counter() - start


class Traffic:
    """Closed-loop clients sharing one request counter."""

    def __init__(self, url: str, schedule: List[List[int]], payloads: Dict[int, list],
                 seconds: float):
        self.url = url
        self.schedule = schedule
        self.payloads = payloads
        self.seconds = seconds
        self.hard_stop = 6 * seconds + 60
        self.lock = threading.Lock()
        self.next_index = 0
        self.latency_ms: Dict[int, float] = {}
        #: Completed requests per request size (rows).
        self.per_size = [0] * (MAX_ROWS + 1)
        self.replies: Dict[int, dict] = {}
        self.retunes: List[Tuple[float, dict]] = []
        self.errors: List[str] = []
        self.started = 0.0

    def _claim(self) -> Optional[int]:
        with self.lock:
            elapsed = perf_counter() - self.started
            done = (
                self.next_index >= len(self.schedule)
                or elapsed >= self.hard_stop
                or (
                    elapsed >= self.seconds
                    and len(self.latency_ms) >= MIN_SAMPLES
                    and min(self.per_size[1:]) >= MIN_PER_SIZE
                )
            )
            if done:
                return None
            self.next_index += 1
            return self.next_index - 1

    def _client(self) -> None:
        client = ServeClient(self.url, timeout=60.0)
        while True:
            i = self._claim()
            if i is None:
                return
            if i and i % RETUNE_EVERY == 0:
                theta = RETUNE_THETAS[(i // RETUNE_EVERY - 1) % len(RETUNE_THETAS)]
                start = perf_counter()
                try:
                    info = client.put("/api/v1/theta", {"theta": theta})
                except ServeError as exc:
                    with self.lock:
                        self.errors.append(f"retune before request {i}: {exc}")
                else:
                    with self.lock:
                        self.retunes.append((1000.0 * (perf_counter() - start), info))
            body = {"inputs": [self.payloads[p] for p in self.schedule[i]]}
            start = perf_counter()
            try:
                reply = client.post("/api/v1/infer", body)
            except ServeError as exc:
                with self.lock:
                    self.errors.append(f"request {i}: {exc}")
                continue
            elapsed_ms = 1000.0 * (perf_counter() - start)
            with self.lock:
                self.latency_ms[i] = elapsed_ms
                self.per_size[len(self.schedule[i])] += 1
                self.replies[i] = reply

    def run(self) -> None:
        """Drive the server until the run is done."""
        threads = [threading.Thread(target=self._client) for _ in range(CONNECTIONS)]
        self.started = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def _verify(outcome: Outcome, traffic: Traffic, infos: Dict[int, dict], test_idx) -> None:
    """Served outputs must equal the offline memoized batch path."""
    for error in traffic.errors:
        outcome.check(False, error)
    outcome.attempted += len(traffic.retunes)
    by_version: Dict[int, List[int]] = {}
    for i, reply in traffic.replies.items():
        by_version.setdefault(int(reply["scheme_version"]), []).append(i)
    benchmark = build_benchmark(NETWORK, scale=SCALE, seed=MODEL_SEED)
    for version, requests in sorted(by_version.items()):
        info = infos.get(version)
        if info is None:
            for i in requests:
                outcome.check(False, f"request {i}: unknown scheme_version {version}")
            continue
        rows = sorted({int(test_idx[p]) for i in requests for p in traffic.schedule[i]})
        expected = dict(zip(rows, expected_outputs(benchmark, scheme_from_info(info), rows)))
        for i in requests:
            want = [expected[int(test_idx[p])] for p in traffic.schedule[i]]
            outcome.check(
                traffic.replies[i]["outputs"] == want,
                f"request {i} (scheme_version {version}) differs from the offline batch path",
            )


def run(root: Path, seed: int, seconds: float, trace: bool, workdir: Path
        ) -> Tuple[Metrics, Outcome]:
    pin(quiet_cpus()[1])
    metrics, outcome = Metrics(), Outcome()
    dataset_owner = build_benchmark(NETWORK, scale=SCALE, seed=MODEL_SEED)
    test_idx = dataset_owner.test_idx
    schedule = request_schedule(seed, SCHEDULE_LENGTH, len(test_idx), MAX_ROWS)
    payloads = {
        p: dataset_owner.dataset.tokens[int(test_idx[p])].tolist()
        for p in range(len(test_idx))
    }

    servers: List[Server] = []
    try:
        setup_s = []
        for index in range(SETUP_REPEATS):
            for old in servers:
                old.stop()
            server, seconds_to_health = start_server(root, workdir, index)
            servers.append(server)
            setup_s.append(seconds_to_health)
        server = servers[-1]
        client = ServeClient(server.url, timeout=60.0)
        initial = client.get("/api/v1/theta")
        before = client.get("/api/v1/metrics")
        server_cpu, client_cpu = cpu_seconds(str(server.proc.pid)), cpu_seconds()
        traffic = Traffic(server.url, schedule, payloads, seconds)
        traffic.run()
        server_cpu = cpu_seconds(str(server.proc.pid)) - server_cpu
        client_cpu = cpu_seconds() - client_cpu
        after = client.get("/api/v1/metrics")
        server_rss = peak_rss_mb(str(server.proc.pid))
    finally:
        for server in servers:
            server.stop()

    infos = {int(initial["scheme_version"]): initial}
    infos.update({int(info["scheme_version"]): info for _, info in traffic.retunes})
    _verify(outcome, traffic, infos, test_idx)

    completed = sorted(traffic.latency_ms)
    latencies = [traffic.latency_ms[i] for i in completed]
    if not trace:
        fast_ms = [
            percentile([traffic.latency_ms[i] for i in completed
                        if len(schedule[i]) == size], FAST_PCT)
            for size in range(1, MAX_ROWS + 1)
        ]
        metrics.add("setup_s", median(setup_s), "s")
        metrics.add("throughput", 1000.0 * CONNECTIONS * len(fast_ms) / sum(fast_ms), "1/s")
        metrics.add("peak_rss_mb", server_rss, "MiB")
        return metrics, outcome

    metrics.add("serve.latency_p50_ms", percentile(latencies, 50), "ms")
    metrics.add("serve.latency_p99_ms", percentile(latencies, 99), "ms")
    timings = [traffic.replies[i]["timings_ms"] for i in completed]
    for stage in STAGES:
        metrics.add(f"serve.{stage}_ms", median([t[stage] for t in timings]), "ms")
    metrics.add(
        "serve.http_ms",
        median([traffic.latency_ms[i] - t["total"] for i, t in zip(completed, timings)]),
        "ms",
    )

    def delta(section: str, key: str) -> int:
        return int(after[section][key]) - int(before[section][key])

    batches = delta("coalesce", "batches")
    metrics.add("serve.rows_per_forward", delta("inference", "rows") / batches, "rows")
    metrics.add("serve.coalesced_share", delta("coalesce", "coalesced_batches") / batches,
                "fraction")
    metrics.add("serve.retune_ms", median([ms for ms, _ in traffic.retunes]), "ms")
    metrics.add("serve.reuse_fraction", float(after["reuse"]["overall_fraction"]), "fraction")
    metrics.add("serve.server_cpu_ms_per_request", 1000.0 * server_cpu / len(completed), "ms")
    metrics.add("loadgen.cpu_ms_per_request", 1000.0 * client_cpu / len(completed), "ms")
    return metrics, outcome
