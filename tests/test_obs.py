"""Tests for the unified telemetry subsystem (``repro.obs``).

The load-bearing properties:

- The metrics registry survives concurrent writers without losing
  counts, and histogram snapshots keep the exact JSON shape the serving
  tier has exposed since the latency histogram landed.
- Request tracing: every reply echoes ``X-Repro-Request-Id``; a
  well-formed client id is adopted, a bad one replaced; one id follows
  a request through serve (``/infer`` body + events) and through the
  coordinator (claim -> complete on one id).
- The event ring stays bounded and reports what it dropped.
- The engine profiler is a no-op when disabled and *bitwise invisible*
  when enabled: same outputs, same reuse decisions.
- ``/metrics.prom`` renders valid Prometheus text exposition on both
  servers while the JSON ``/metrics`` payload keeps its keys.
"""

import gzip
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme, apply_memoization, restore
from repro.core.stats import ReuseStats
from repro.models.zoo import load_benchmark
from repro.nn import LSTMLayer, RNNStack
from repro.obs import (
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
    REQUEST_ID_HEADER,
    ensure_request_id,
    new_request_id,
    profiled,
    valid_request_id,
)
from repro.obs import profiler as profiler_module
from repro.obs import prom
from repro.obs.top import (
    percentile_from_buckets,
    render_coordinator,
    render_serve,
    run_top,
)
from repro.runner import CoordinatorServer, RemoteWorkQueue, WorkQueue
from repro.serve import InferenceServer, ServeClient, ServeState, run_loadgen

THETA = 0.05


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_counter(self):
        counter = Counter("c_total", "a count")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_total_never_lowers(self):
        counter = Counter("c_total")
        counter.set_total(10)
        counter.set_total(4)
        assert counter.value() == 10

    def test_labeled_series(self):
        counter = Counter("hits_total", label_names=("path",))
        counter.inc(labels=("/a",))
        counter.inc(labels=("/a",))
        counter.inc(labels=("/b",))
        assert counter.series() == {("/a",): 2, ("/b",): 1}
        with pytest.raises(ValueError):
            counter.inc()  # missing label

    def test_gauge(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value() == 3.0

    def test_histogram_snapshot_shape(self):
        hist = Histogram("h_ms", bounds_ms=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 5000.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["overflow"] == 1
        assert snap["max_ms"] == 5000.0
        assert [b["count"] for b in snap["buckets"]] == [1, 2, 3]
        assert snap["sum_ms"] == pytest.approx(5055.5)
        # Unobserved series snapshot as all-zero, same shape.
        empty = Histogram("e_ms", bounds_ms=(1.0,)).snapshot()
        assert empty["count"] == 0 and len(empty["buckets"]) == 1

    def test_registry_get_or_create_and_kind_collision(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        assert registry.counter("x_total") is a
        with pytest.raises(ValueError):
            registry.gauge("x_total")
        with pytest.raises(ValueError):
            registry.register(Counter("x_total"))
        assert [m.name for m in registry.collect()] == ["x_total"]

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("0bad")
        with pytest.raises(ValueError):
            Counter("ok_total", label_names=("bad-label",))

    def test_thread_hammer(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total", label_names=("t",))
        hist = registry.histogram("hammer_ms", bounds_ms=(1.0, 10.0))
        threads, per_thread = 8, 500
        barrier = threading.Barrier(threads)

        def work(tag):
            barrier.wait()
            for i in range(per_thread):
                counter.inc(labels=(tag,))
                hist.observe(float(i % 20))

        pool = [
            threading.Thread(target=work, args=(str(t),)) for t in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert sum(counter.series().values()) == threads * per_thread
        assert hist.snapshot()["count"] == threads * per_thread


# -- event ring --------------------------------------------------------------


class TestEventLog:
    def test_bounded_ring_reports_drops(self):
        log = EventLog(capacity=4)
        for i in range(6):
            log.emit("tick", n=i)
        snap = log.snapshot()
        assert snap["capacity"] == 4
        assert snap["total"] == 6
        assert snap["dropped"] == 2
        kept = [event["n"] for event in snap["events"]]
        assert kept == [2, 3, 4, 5]  # oldest-first, oldest two dropped
        seqs = [event["seq"] for event in snap["events"]]
        assert seqs == sorted(seqs)

    def test_kind_filter_and_limit(self):
        log = EventLog(capacity=16)
        for i in range(4):
            log.emit("a", n=i)
            log.emit("b", n=i)
        only_a = log.snapshot(kind="a")["events"]
        assert [e["kind"] for e in only_a] == ["a"] * 4
        last_two = log.snapshot(limit=2)["events"]
        assert [e["n"] for e in last_two] == [3, 3]

    def test_events_carry_timestamps(self):
        log = EventLog()
        log.emit("x")
        event = log.snapshot()["events"][0]
        assert event["ts"] > 0 and event["kind"] == "x"


# -- tracing -----------------------------------------------------------------


class TestTracing:
    def test_minted_ids_are_valid(self):
        ids = {new_request_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(valid_request_id(i) for i in ids)

    def test_valid_request_id(self):
        assert valid_request_id("abc-DEF_1.2")
        assert not valid_request_id("")
        assert not valid_request_id("a" * 65)
        assert not valid_request_id("has space")
        assert not valid_request_id(None)

    def test_ensure_adopts_or_replaces(self):
        assert ensure_request_id("client-id-1") == "client-id-1"
        replaced = ensure_request_id("bad id!")
        assert replaced != "bad id!" and valid_request_id(replaced)
        assert valid_request_id(ensure_request_id(None))


# -- Prometheus exposition ---------------------------------------------------


class TestProm:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "req_total", "requests", label_names=("path",)
        ).inc(labels=('/a"b\\c',))
        registry.gauge("depth", "queue depth").set(3)
        hist = registry.histogram("lat_ms", "latency", bounds_ms=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(99.0)
        return registry

    def test_render_validates(self):
        text = prom.render(self._registry())
        samples = prom.validate_exposition(text)
        assert samples >= 6  # counter + gauge + 3 buckets + sum + count
        assert "# TYPE req_total counter" in text
        assert 'le="+Inf"} 2' in text

    def test_escaping_round_trips(self):
        text = prom.render(self._registry())
        assert '\\"' in text and "\\\\" in text
        prom.validate_exposition(text)

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            prom.validate_exposition("req_total 1\n")  # no TYPE declared
        with pytest.raises(ValueError):
            prom.validate_exposition(
                "# TYPE x counter\nx 1\nx 2\n"
            )  # duplicate series
        with pytest.raises(ValueError):
            prom.validate_exposition(
                "# TYPE h histogram\n"
                'h_bucket{le="1.0"} 1\nh_sum 1\nh_count 1\n'
            )  # no +Inf bucket

    def test_module_cli(self, tmp_path, capsys):
        good = tmp_path / "good.prom"
        good.write_text(prom.render(self._registry()))
        assert prom.main([str(good)]) == 0
        assert "ok:" in capsys.readouterr().out
        bad = tmp_path / "bad.prom"
        bad.write_text("not a metric line\n")
        assert prom.main([str(bad)]) == 1
        assert "invalid exposition" in capsys.readouterr().err


# -- engine profiler ---------------------------------------------------------


class TestProfiler:
    def _memoized_stack(self):
        rng = np.random.default_rng(3)
        stack = RNNStack([LSTMLayer(6, 12, rng=rng)])
        stats = ReuseStats()
        scheme = MemoizationScheme(theta=0.4, predictor="bnn")
        replacements = apply_memoization(stack, scheme, stats)
        inputs = np.random.default_rng(5).standard_normal((4, 10, 6))
        return stack, stats, replacements, inputs

    def test_disabled_by_default(self):
        assert profiler_module.ACTIVE is None

    def test_profiled_restores_previous(self):
        with profiled() as outer:
            assert profiler_module.ACTIVE is outer
            with profiled() as inner:
                assert profiler_module.ACTIVE is inner
            assert profiler_module.ACTIVE is outer
        assert profiler_module.ACTIVE is None

    def test_enabled_is_bitwise_invisible(self):
        stack, stats, replacements, inputs = self._memoized_stack()
        try:
            baseline = stack(inputs)
            reused_off = dict(stats.reused)
            total_off = dict(stats.total)
            stats.reset()
            with profiled() as profiler:
                start = time.perf_counter()
                profiled_out = stack(inputs)
                wall = time.perf_counter() - start
            np.testing.assert_array_equal(baseline, profiled_out)
            assert dict(stats.reused) == reused_off
            assert dict(stats.total) == total_off
        finally:
            restore(replacements)
        snap = profiler.snapshot()
        (layer_name,) = snap["layers"].keys()
        layer = snap["layers"][layer_name]
        assert layer["steps"] == 10
        assert layer["step_s"] > 0
        assert layer["compute_s"] >= 0
        # The hoisted input projection runs outside every step fence.
        assert layer["project_s"] > 0
        assert layer["step_s"] + layer["project_s"] <= wall
        phases = layer["phases"]
        assert phases  # at least one gate phase recorded
        profiled_reuse = sum(p["reused"] for p in phases.values())
        assert profiled_reuse == sum(stats.reused.values())

    def test_table_allocations_reported_from_cold_path(self):
        stack, _, replacements, inputs = self._memoized_stack()
        try:
            with profiled() as profiler:
                stack(inputs)  # first forward: buffers allocate under profiling
                stack(inputs)  # same batch shape: no new allocation
        finally:
            restore(replacements)
        allocations = profiler.snapshot()["table_allocations"]
        assert allocations
        assert all(a["batch"] == inputs.shape[0] for a in allocations)
        assert len({(a["layer"], a["phase"]) for a in allocations}) == len(
            allocations
        )

    def test_snapshot_reuse_fraction(self):
        profiler = Profiler()
        profiler.record_phase("l", 0, ("i",), 0.1, 0.05, reused=3, total=4)
        phase = profiler.snapshot()["layers"]["l"]["phases"]["0"]
        assert phase["reuse_fraction"] == pytest.approx(0.75)


# -- serve integration -------------------------------------------------------


def _serve(benchmark, **kwargs):
    state = ServeState(benchmark, MemoizationScheme(theta=THETA))
    server = InferenceServer(state, quiet=True, **kwargs)
    server.serve_in_thread()

    def shutdown():
        server.stop()
        state.unwrap()

    return server, state, shutdown


def _fetch_raw(url, path, token=None, request_id=None):
    headers = {}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    if request_id is not None:
        headers[REQUEST_ID_HEADER] = request_id
    request = urllib.request.Request(url + path, headers=headers)
    with urllib.request.urlopen(request, timeout=30) as reply:
        body = reply.read()
        if reply.headers.get("Content-Encoding") == "gzip":
            body = gzip.decompress(body)
        return reply.status, dict(reply.headers), body.decode("utf-8")


@pytest.fixture(scope="module")
def imdb():
    return load_benchmark("imdb", scale="tiny")


@pytest.fixture(scope="module")
def imdb_row(imdb):
    return imdb.dataset.tokens[int(imdb.test_idx[0])].tolist()


class TestServeTelemetry:
    def test_request_id_minted_and_echoed(self, imdb, imdb_row):
        server, _, shutdown = _serve(imdb)
        try:
            client = ServeClient(server.url)
            reply = client.post("/api/v1/infer", {"input": imdb_row})
            assert reply["request_id"] == client.last_request_id
            assert valid_request_id(reply["request_id"])
        finally:
            shutdown()

    def test_client_id_adopted_and_bad_id_replaced(self, imdb):
        server, _, shutdown = _serve(imdb)
        try:
            _, headers, _ = _fetch_raw(
                server.url, "/api/v1/health", request_id="trace-me.1"
            )
            assert headers[REQUEST_ID_HEADER] == "trace-me.1"
            _, headers, _ = _fetch_raw(
                server.url, "/api/v1/health", request_id="bad id!"
            )
            echoed = headers[REQUEST_ID_HEADER]
            assert echoed != "bad id!" and valid_request_id(echoed)
        finally:
            shutdown()

    def test_timings_spans_sum_to_total(self, imdb, imdb_row):
        server, _, shutdown = _serve(imdb)
        try:
            client = ServeClient(server.url)
            reply = client.post("/api/v1/infer", {"input": imdb_row})
            timings = reply["timings_ms"]
            stages = {k: v for k, v in timings.items() if k != "total"}
            assert set(stages) == {
                "validate", "queue_wait", "gather", "forward",
                "finalize", "collect",
            }
            assert all(v >= 0 for v in stages.values())
            assert timings["total"] == pytest.approx(
                sum(stages.values()), rel=1e-9
            )
        finally:
            shutdown()

    def test_request_id_lands_in_events(self, imdb, imdb_row):
        server, _, shutdown = _serve(imdb)
        try:
            client = ServeClient(server.url)
            reply = client.post("/api/v1/infer", {"input": imdb_row})
            events = client.get("/api/v1/events")["events"]
            infer_events = [e for e in events if e["kind"] == "infer"]
            assert reply["request_id"] in {
                e["request_id"] for e in infer_events
            }
            client.put("/api/v1/theta", {"theta": 0.2})
            events = client.get("/api/v1/events")["events"]
            retunes = [e for e in events if e["kind"] == "retune"]
            assert retunes and retunes[-1]["theta"] == 0.2
            assert "theta" in retunes[-1]["changed"]
        finally:
            shutdown()

    def test_session_events_and_timings(self):
        bench = load_benchmark("deepspeech2", scale="tiny")
        chunk = bench.dataset.features[int(bench.test_idx[0])][:4].tolist()
        server, _, shutdown = _serve(bench)
        try:
            client = ServeClient(server.url)
            opened = client.post("/api/v1/session/open", {})
            session = opened["session"]
            reply = client.post(
                "/api/v1/infer", {"session": session, "input": chunk}
            )
            timings = reply["timings_ms"]
            stages = {k: v for k, v in timings.items() if k != "total"}
            assert set(stages) == {
                "validate", "session_wait", "forward", "finalize",
            }
            assert timings["total"] == pytest.approx(
                sum(stages.values()), rel=1e-9
            )
            client.post("/api/v1/session/close", {"session": session})
            kinds = [
                e["kind"] for e in client.get("/api/v1/events")["events"]
            ]
            assert "session_opened" in kinds and "session_closed" in kinds
        finally:
            shutdown()

    def test_metrics_prom_valid_and_json_metrics_unchanged(
        self, imdb, imdb_row
    ):
        server, _, shutdown = _serve(imdb, token="s3cret")
        try:
            client = ServeClient(server.url, token="s3cret")
            client.post("/api/v1/infer", {"input": imdb_row})
            # Auth applies to the exposition too.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _fetch_raw(server.url, "/metrics.prom")
            assert excinfo.value.code == 401
            status, headers, text = _fetch_raw(
                server.url, "/metrics.prom", token="s3cret"
            )
            assert status == 200
            assert headers["Content-Type"] == prom.PROM_CONTENT_TYPE
            assert prom.validate_exposition(text) > 0
            assert "repro_request_latency_ms_bucket" in text
            assert "repro_infer_requests_total 1" in text
            metrics = client.get("/api/v1/metrics")
            assert set(metrics) == {
                "model", "scheme", "uptime_s", "requests", "inference",
                "pool", "coalesce", "reuse", "sessions",
            }
        finally:
            shutdown()

    def test_loadgen_report_and_trace_agree(self, imdb, tmp_path):
        server, _, shutdown = _serve(imdb)
        try:
            out = tmp_path / "report.json"
            summary = run_loadgen(
                server.url,
                "imdb",
                requests=6,
                concurrency=2,
                batch=2,
                out=str(out),
            )
            report = json.loads(out.read_text())
            assert report["requests"] == summary["requests"] == 6
            assert sum(report["by_scheme_version"].values()) == 6
            sampled = report["requests_sampled"]
            assert sampled and all(r["request_id"] for r in sampled)
            assert all(
                set(r["timings_ms"]) >= {"total", "forward"} for r in sampled
            )
            stage_means = report["server_timings_ms"]
            assert stage_means["total"] > 0
            # The sampled ids are findable in the server's event ring.
            events = ServeClient(server.url).get("/api/v1/events")["events"]
            seen = {e.get("request_id") for e in events}
            assert {r["request_id"] for r in sampled} <= seen
        finally:
            shutdown()


# -- coordinator integration -------------------------------------------------


@pytest.fixture()
def coordinator(tmp_path):
    queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
    server = CoordinatorServer(queue, port=0, quiet=True)
    server.serve_in_thread()
    yield server
    server.stop()


class TestCoordinatorTelemetry:
    def test_health(self, coordinator):
        client = RemoteWorkQueue(coordinator.url, retries=1, backoff=0.05)
        health = client._call("health", method="GET")
        assert health["ok"] is True
        assert health["writable"] is True
        assert health["protocol"] >= 1
        assert health["queue_dir"]

    def test_claim_to_complete_single_request_id(self, coordinator):
        client = RemoteWorkQueue(coordinator.url, retries=1, backoff=0.05)
        client.submit_many([{"kind": "t", "tag": 1}])
        task = client.claim("owner-a")
        claim_id = client.last_request_id
        assert valid_request_id(claim_id)
        # worker_joined was traced under the claim's request id.
        events = client._call("events", method="GET")["events"]
        joined = [e for e in events if e["kind"] == "worker_joined"]
        assert [e["request_id"] for e in joined] == [claim_id]
        client.results.put(task.task_id, {"ok": True})
        client.complete(task)
        # complete reused the id minted at claim time: one id per lease.
        assert client.last_request_id == claim_id

    def test_quarantine_and_lease_expiry_events(self, tmp_path):
        queue = WorkQueue(tmp_path / "q2", lease_ttl=0.05)
        server = CoordinatorServer(queue, port=0, quiet=True)
        server.serve_in_thread()
        try:
            client = RemoteWorkQueue(server.url, retries=1, backoff=0.05)
            client.submit_many([{"kind": "t", "tag": 1}])
            task = client.claim("owner-b")
            client.fail(task, error="boom")
            client.submit_many([{"kind": "t", "tag": 2}])
            client.claim("owner-b")
            time.sleep(0.1)
            queue.requeue_expired()
            kinds = {
                e["kind"]: e
                for e in client._call("events", method="GET")["events"]
            }
            assert kinds["task_quarantined"]["error"] == "boom"
            # Owners are decorated with a host suffix on the wire.
            assert kinds["task_quarantined"]["owner"].startswith("owner-b")
            assert kinds["lease_expired"]["owner"].startswith("owner-b")
        finally:
            server.stop()

    def test_per_owner_throughput_and_prom(self, coordinator):
        client = RemoteWorkQueue(coordinator.url, retries=1, backoff=0.05)
        client.submit_many([{"kind": "t", "tag": tag} for tag in range(3)])
        for _ in range(2):
            task = client.claim("owner-c")
            client.results.put(task.task_id, {"ok": True})
            client.complete(task)
        task = client.claim("owner-c")
        client.fail(task, error="nope")
        stats = client._call("stats", method="GET")
        (owner_key,) = stats["throughput"].keys()
        assert owner_key.startswith("owner-c")
        throughput = stats["throughput"][owner_key]
        assert throughput["completed"] == 2
        assert throughput["failed"] == 1
        assert throughput["rate_per_s"] > 0
        status, headers, text = _fetch_raw(coordinator.url, "/metrics.prom")
        assert status == 200
        assert headers["Content-Type"] == prom.PROM_CONTENT_TYPE
        assert prom.validate_exposition(text) > 0
        assert f'repro_tasks_completed_total{{owner="{owner_key}"}} 2' in text
        assert "repro_queue_pending 0" in text


# -- repro top ---------------------------------------------------------------


class TestTop:
    def test_percentile_interpolation(self):
        snapshot = {
            "count": 4,
            "max_ms": 500.0,
            "buckets": [
                {"le_ms": 10.0, "count": 2},
                {"le_ms": 100.0, "count": 3},
            ],
        }
        assert percentile_from_buckets(snapshot, 0.25) == pytest.approx(5.0)
        assert percentile_from_buckets(snapshot, 0.75) == pytest.approx(100.0)
        # Past the last bound -> observed max, not a fictional edge.
        assert percentile_from_buckets(snapshot, 1.0) == 500.0
        assert percentile_from_buckets({"count": 0}, 0.5) == 0.0

    def test_render_serve_smoke(self):
        text = render_serve(
            {
                "model": {"name": "imdb", "scale": "tiny"},
                "scheme": {"scheme_version": 2, "theta": 0.1,
                           "predictor": "bnn"},
                "uptime_s": 65.0,
                "inference": {"requests": 10, "rows": 40,
                              "latency_ms": {"count": 0}},
                "pool": {"replicas": 2, "busy": 1},
                "reuse": {"overall_fraction": 0.5},
                "sessions": {"open": 0},
            }
        )
        assert "imdb/tiny" in text and "1/2 busy" in text and "50.0%" in text

    def test_run_top_against_both_servers(self, imdb, coordinator):
        server, _, shutdown = _serve(imdb)
        try:
            dashboard = run_top(server.url)
            assert dashboard.startswith("serve")
            assert "latency" in dashboard
        finally:
            shutdown()
        dashboard = run_top(coordinator.url)
        assert dashboard.startswith("coordinator")
        assert "0 active owner(s)" in dashboard

    def test_render_coordinator_throughput_table(self):
        text = render_coordinator(
            {
                "pending": 1, "active": 2, "failed": 0, "results": 3,
                "lease_ttl": 60.0, "owners": ["w1"],
                "throughput": {
                    "w1": {"completed": 5, "failed": 1, "rate_per_s": 0.5}
                },
            }
        )
        assert "pending 1" in text
        assert "w1" in text and "0.50" in text
