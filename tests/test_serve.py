"""Tests for the online inference service (`repro serve` + loadgen).

The load-bearing properties:

- Served predictions are bitwise identical to the offline batch path
  (`Benchmark.evaluate_memoized`'s inference) at the same scheme — one
  row at a time, batched, or under concurrent load.
- Live retuning (PUT /theta) swaps the scheme atomically: requests
  in flight finish under the scheme they started with, every response
  names its scheme_version, and a failed retune leaves the server
  serving under the old scheme.
- Streaming sessions keep memo state warm across chunk requests and
  reproduce the one-shot forward bitwise.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest
from helpers import count_connections

from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import ReuseStats
from repro.models.zoo import load_benchmark
from repro.runner.transport import http_common
from repro.serve import (
    MAX_INFER_ROWS,
    InferenceServer,
    ServeClient,
    ServeError,
    ServeState,
    parse_layer_thetas,
    run_loadgen,
)
from repro.serve.loadgen import expected_outputs, scheme_from_info

THETA = 0.05


def serve(benchmark, scheme=None, **server_kwargs):
    """Start a server for `benchmark`; caller must call `shutdown`."""
    state = ServeState(
        benchmark, scheme or MemoizationScheme(theta=THETA)
    )
    server = InferenceServer(state, quiet=True, **server_kwargs)
    server.serve_in_thread()
    return server, state, server.stop


def assert_rejected(client, body, message):
    """``body`` posted to ``/infer`` gets a 400 carrying ``message``."""
    with pytest.raises(ServeError) as excinfo:
        client.post("/api/v1/infer", body)
    assert excinfo.value.status == 400
    assert str(excinfo.value) == f"HTTP 400: {message}"


def speech_row_rejections(width):
    """Malformed frame rows for a ``width``-feature speech network, each
    with the message its validator answers."""
    frame = [0.0] * width
    not_a_matrix = "each speech row must be a non-empty (frames x features) array"
    not_numbers = "each speech row must be a (frames x features) array of numbers"
    return (
        ([frame + [0.0]],
         f"speech rows must have {width} features per frame, got {width + 1}"),
        ([frame, [float("nan")] * width], "speech rows must be finite numbers"),
        ([frame, [float("inf")] * width], "speech rows must be finite numbers"),
        (frame, not_a_matrix),
        ([], not_a_matrix),
        ([["a"] * width], not_numbers),
        ([frame, frame[1:]], not_numbers),
        # numpy reads booleans and numeric strings as numbers; JSON
        # frames must hold numbers.
        ([[True] * width], not_numbers),
        ([["1.5"] * width], not_numbers),
        ([frame, [1] * (width - 1) + [True]], not_numbers),
    )


@pytest.fixture
def imdb():
    return load_benchmark("imdb", scale="tiny")


@pytest.fixture
def imdb_rows(imdb):
    indices = [int(i) for i in imdb.test_idx[:6]]
    return indices, [imdb.dataset.tokens[i].tolist() for i in indices]


class TestLatencyHistogram:
    """The request-latency series a serving state registers: the registry
    histogram behind ``/metrics`` ``latency_ms`` and ``/metrics.prom``."""

    def test_counts_and_summary(self, imdb):
        state = ServeState(imdb, MemoizationScheme(theta=THETA))
        assert state.registry.get("repro_request_latency_ms") is state.latency
        for value in (0.5, 5.0, 50.0, 5000.0, 1e6):
            state.latency.observe(value)
        snap = state.metrics()["inference"]["latency_ms"]
        assert snap["count"] == 5
        assert snap["overflow"] == 1
        assert snap["max_ms"] == 1e6
        cumulative = {bucket["le_ms"]: bucket["count"]
                      for bucket in snap["buckets"]}
        assert [cumulative[le] for le in (1.0, 8.0, 64.0, 8192.0)] == [1, 2, 3, 4]

    def test_empty(self, imdb):
        state = ServeState(imdb, MemoizationScheme(theta=THETA))
        snap = state.metrics()["inference"]["latency_ms"]
        assert snap["count"] == 0
        assert snap["mean_ms"] == 0.0


class TestEndpoints:
    def test_health_payload(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            health = ServeClient(server.url).get("/api/v1/health")
            assert health["ok"] is True
            assert health["model"] == "imdb"
            assert health["task"] == "sentiment"
            assert health["scheme_version"] == 1
        finally:
            shutdown()

    def test_infer_single_and_batch(self, imdb, imdb_rows):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        try:
            client = ServeClient(server.url)
            single = client.post("/api/v1/infer", {"input": rows[0]})
            assert len(single["outputs"]) == 1
            assert single["scheme_version"] == 1
            assert single["theta"] == THETA
            batch = client.post("/api/v1/infer", {"inputs": rows})
            assert len(batch["outputs"]) == len(rows)
            assert batch["outputs"][0] == single["outputs"][0]
        finally:
            shutdown()

    def test_validation_errors(self, imdb, imdb_rows):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        try:
            client = ServeClient(server.url)
            for bad in (
                {},  # no inputs
                {"inputs": []},  # empty
                {"inputs": "nope"},  # not a list
                {"inputs": [["a", "b"]]},  # non-int tokens
                {"inputs": [[10**6]]},  # out of vocab
                {"input": rows[0], "inputs": rows},  # both forms
                {"inputs": [rows[0]] * (MAX_INFER_ROWS + 1)},  # too many
            ):
                with pytest.raises(ServeError) as excinfo:
                    client.post("/api/v1/infer", bad)
                assert excinfo.value.status == 400
        finally:
            shutdown()

    @pytest.mark.parametrize("network,what", [("imdb", "token"), ("mnmt", "source")])
    def test_token_row_rejections(self, network, what):
        bench = load_benchmark(network, scale="tiny")
        vocab = bench.dataset.vocab_size
        server, _, shutdown = serve(bench)
        client = ServeClient(server.url)
        try:
            for row, message in (
                ([True, False], f"{what} tokens must be integers"),
                ([], f"each {what} row must be a non-empty list of ints"),
                ("1 2 3", f"each {what} row must be a non-empty list of ints"),
                ([1, vocab], f"{what} tokens must be in [0, {vocab})"),
                ([-1], f"{what} tokens must be in [0, {vocab})"),
                (["a", "b"], f"{what} tokens must be integers"),
                ([1.0, 2.0], f"{what} tokens must be integers"),
            ):
                assert_rejected(client, {"inputs": [row]}, message)
        finally:
            client.close()
            shutdown()

    @pytest.mark.parametrize("network", ["deepspeech2", "eesen"])
    def test_speech_row_rejections(self, network):
        bench = load_benchmark(network, scale="tiny")
        server, _, shutdown = serve(bench)
        client = ServeClient(server.url)
        try:
            for row, message in speech_row_rejections(bench.dataset.feature_dim):
                assert_rejected(client, {"inputs": [row]}, message)
        finally:
            client.close()
            shutdown()

    def test_session_chunk_rejections(self):
        bench = load_benchmark("deepspeech2", scale="tiny")
        server, _, shutdown = serve(bench)
        client = ServeClient(server.url)
        try:
            sid = client.post("/api/v1/session/open", {})["session"]
            for row, message in speech_row_rejections(bench.dataset.feature_dim):
                assert_rejected(client, {"session": sid, "input": row}, message)
            closed = client.post("/api/v1/session/close", {"session": sid})
            assert closed["frames"] == 0
        finally:
            client.close()
            shutdown()

    def test_unknown_endpoint_and_method(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError) as excinfo:
                client.post("/api/v1/nope", {})
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client.post("/api/v1/metrics", {})
            assert excinfo.value.status == 405
        finally:
            shutdown()

    def test_auth_required_when_token_set(self, imdb, imdb_rows):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb, token="s3cret")
        try:
            with pytest.raises(ServeError) as excinfo:
                ServeClient(server.url).get("/api/v1/health")
            assert excinfo.value.status == 401
            with pytest.raises(ServeError) as excinfo:
                ServeClient(server.url, token="wrong").post(
                    "/api/v1/infer", {"input": rows[0]}
                )
            assert excinfo.value.status == 401
            ok = ServeClient(server.url, token="s3cret").get("/api/v1/health")
            assert ok["ok"] is True
        finally:
            shutdown()

    def test_metrics_shape(self, imdb, imdb_rows):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        try:
            client = ServeClient(server.url)
            client.post("/api/v1/infer", {"inputs": rows})
            metrics = client.get("/api/v1/metrics")
            assert metrics["model"]["name"] == "imdb"
            assert metrics["inference"]["requests"] == 1
            assert metrics["inference"]["rows"] == len(rows)
            latency = metrics["inference"]["latency_ms"]
            assert latency["count"] == 1
            assert latency["buckets"], "histogram must expose buckets"
            assert 0.0 <= metrics["reuse"]["overall_fraction"] <= 1.0
            assert "lstm" in metrics["reuse"]["by_layer"]
            assert metrics["requests"]["/api/v1/infer"] == 1
        finally:
            shutdown()


class TestKeepAlive:
    """One kept-alive connection per client thread, replaced transparently
    when the server closes it."""

    def test_infer_round_trips_on_one_connection_do_not_stall(self, imdb, imdb_rows):
        """A kept-alive ``/infer`` must not wait for a delayed ACK (~40 ms
        when the reply went out as headers, then body, on a Nagle socket)."""
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        body = json.dumps({"inputs": rows[:2]})
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request(
                    "POST", "/api/v1/infer", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
            shutdown()
        assert elapsed < 0.4, f"20 kept-alive round trips took {elapsed:.3f} s"

    def test_one_connection_per_thread(self, imdb, imdb_rows, monkeypatch):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        accepted = count_connections(monkeypatch, server)
        client = ServeClient(server.url)
        outputs = []

        def drive():
            for row in rows:
                outputs.append(client.post("/api/v1/infer", {"input": row})["outputs"])

        try:
            threads = [threading.Thread(target=drive) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(outputs) == 3 * len(rows)
            assert len(accepted) == 3
            client.get("/api/v1/health")  # the main thread: a fourth
            assert len(accepted) == 4
        finally:
            client.close()
            shutdown()

    def test_reconnects_after_an_error_reply(self, imdb, imdb_rows, monkeypatch):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        accepted = count_connections(monkeypatch, server)
        client = ServeClient(server.url)
        try:
            client.post("/api/v1/infer", {"input": rows[0]})
            with pytest.raises(ServeError) as excinfo:
                client.post("/api/v1/infer", {"inputs": []})  # 400, Connection: close
            assert excinfo.value.status == 400
            assert client.post("/api/v1/infer", {"input": rows[0]})["outputs"]
            assert len(accepted) == 2
        finally:
            client.close()
            shutdown()

    def test_reconnects_to_a_restarted_server(self, imdb, imdb_rows, monkeypatch):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        port = server.server_address[1]
        client = ServeClient(server.url)
        try:
            assert client.get("/api/v1/theta")["theta"] == THETA
            shutdown()
            server, _, shutdown = serve(
                imdb, MemoizationScheme(theta=0.3), port=port
            )
            accepted = count_connections(monkeypatch, server)
            assert client.get("/api/v1/theta")["theta"] == 0.3
            assert client.post("/api/v1/infer", {"input": rows[0]})["theta"] == 0.3
            assert len(accepted) == 1
        finally:
            client.close()
            shutdown()
        with pytest.raises(ServeError) as excinfo:
            client.get("/api/v1/health")  # stopped: refused, not a hang
        assert excinfo.value.status == 0

    def test_reconnects_after_the_idle_close(self, imdb, imdb_rows, monkeypatch):
        _, rows = imdb_rows
        monkeypatch.setattr(http_common, "IDLE_TIMEOUT_S", 0.2)
        server, _, shutdown = serve(imdb)
        accepted = count_connections(monkeypatch, server)
        client = ServeClient(server.url)
        try:
            client.get("/api/v1/metrics")
            client.post("/api/v1/infer", {"input": rows[0]})
            assert len(accepted) == 1
            time.sleep(0.6)
            after = client.get("/api/v1/metrics")
            assert after["inference"]["requests"] == 1
            assert len(accepted) == 2
        finally:
            client.close()
            shutdown()


class TestBitwiseEquivalence:
    """Served predictions == offline batch path, bit for bit."""

    def test_single_rows_match_batch_path(self, imdb, imdb_rows):
        indices, rows = imdb_rows
        scheme = MemoizationScheme(theta=THETA)
        # Reference first: expected_outputs wraps/unwraps the same model.
        expected = expected_outputs(imdb, scheme, indices)
        server, _, shutdown = serve(imdb, scheme=scheme)
        try:
            client = ServeClient(server.url)
            served = [
                client.post("/api/v1/infer", {"input": row})["outputs"][0]
                for row in rows
            ]
            assert served == expected
            batch = client.post("/api/v1/infer", {"inputs": rows})["outputs"]
            assert batch == expected
        finally:
            shutdown()

    def test_speech_rows_match_batch_path(self):
        bench = load_benchmark("deepspeech2", scale="tiny")
        indices = [int(i) for i in bench.test_idx[:3]]
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(bench, scheme, indices)
        server, _, shutdown = serve(bench, scheme=scheme)
        try:
            client = ServeClient(server.url)
            rows = [bench.dataset.features[i].tolist() for i in indices]
            served = client.post("/api/v1/infer", {"inputs": rows})["outputs"]
            assert served == expected
        finally:
            shutdown()

    def test_translation_rows_match_batch_path_through_loadgen(self):
        """MNMT through the whole loadgen path: its row payloads, the
        translation adapter's decode and the offline reference agree on
        both sides of a mid-run retune."""
        bench = load_benchmark("mnmt", scale="tiny")
        server, _, shutdown = serve(bench)
        try:
            summary = run_loadgen(
                server.url, "mnmt", requests=6, concurrency=2, batch=3,
                verify=True, retune_theta=0.4,
            )
        finally:
            shutdown()
        assert summary["errors"] == []
        assert summary["completed"] == 6
        assert summary["verify"]["versions"] == [1, 2]
        assert summary["verify"]["checked"] == 18
        assert summary["verify"]["mismatches"] == 0

    def test_concurrent_traffic_with_live_retune(self, imdb):
        """N threads of traffic stay bitwise-correct across a mid-run
        theta PUT: every response is attributed to a scheme_version, and
        each prediction equals the batch path at that version's theta."""
        indices = [int(i) for i in imdb.test_idx[:8]]
        rows = {i: imdb.dataset.tokens[i].tolist() for i in indices}
        theta_a, theta_b = 0.05, 0.4
        expected = {
            1: dict(zip(indices, expected_outputs(
                imdb, MemoizationScheme(theta=theta_a), indices))),
            2: dict(zip(indices, expected_outputs(
                imdb, MemoizationScheme(theta=theta_b), indices))),
        }
        server, _, shutdown = serve(
            imdb, scheme=MemoizationScheme(theta=theta_a)
        )
        try:
            url = server.url
            results = []
            results_lock = threading.Lock()
            put_gate = threading.Event()

            def worker(worker_id):
                client = ServeClient(url)
                for step in range(10):
                    index = indices[(worker_id + step) % len(indices)]
                    reply = client.post(
                        "/api/v1/infer", {"input": rows[index]}
                    )
                    with results_lock:
                        results.append(
                            (index, reply["outputs"][0],
                             reply["scheme_version"])
                        )
                    if step == 2:
                        put_gate.set()  # traffic is flowing; retune now

            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(4)
            ]
            for thread in threads:
                thread.start()
            put_gate.wait(timeout=30)
            info = ServeClient(url).put("/api/v1/theta", {"theta": theta_b})
            assert info["scheme_version"] == 2
            for thread in threads:
                thread.join()
        finally:
            shutdown()
        versions = {version for (_, _, version) in results}
        assert versions <= {1, 2}
        assert 2 in versions, "some traffic must land after the retune"
        for index, output, version in results:
            assert output == expected[version][index], (
                f"row {index} under scheme_version {version}"
            )


class TestThetaEndpoint:
    def test_get_reports_scheme(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            info = ServeClient(server.url).get("/api/v1/theta")
            assert info["theta"] == THETA
            assert info["predictor"] == "bnn"
            assert info["layers"] == ["lstm"]
            assert info["scheme_version"] == 1
        finally:
            shutdown()

    def test_put_retunes_globally_and_per_layer(self, imdb, imdb_rows):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        try:
            client = ServeClient(server.url)
            info = client.put(
                "/api/v1/theta",
                {"theta": 0.2, "layer_thetas": {"lstm": 0.1}},
            )
            assert info["theta"] == 0.2
            assert info["layer_thetas"] == {"lstm": 0.1}
            assert info["scheme_version"] == 2
            reply = client.post("/api/v1/infer", {"input": rows[0]})
            assert reply["scheme_version"] == 2
            # Clearing the overrides is an explicit null.
            info = client.put("/api/v1/theta", {"layer_thetas": None})
            assert info["layer_thetas"] is None
            assert info["scheme_version"] == 3
        finally:
            shutdown()

    def test_bad_retunes_are_rejected_and_harmless(self, imdb, imdb_rows):
        _, rows = imdb_rows
        server, _, shutdown = serve(imdb)
        try:
            client = ServeClient(server.url)
            for bad in (
                {},  # nothing to do
                {"theta": -0.5},  # negative
                {"theta": "big"},  # not a number
                {"predictor": "magic"},  # unknown kind
                {"layer_thetas": {"nope": 0.1}},  # unknown layer
                {"layer_thetas": {"lstm": -1.0}},  # negative override
                {"use_packed": True},  # unknown field
            ):
                with pytest.raises(ServeError) as excinfo:
                    client.put("/api/v1/theta", bad)
                assert excinfo.value.status == 400
            # Still serving, still version 1.
            reply = client.post("/api/v1/infer", {"input": rows[0]})
            assert reply["scheme_version"] == 1
            assert reply["theta"] == THETA
        finally:
            shutdown()


class TestStreamingSessions:
    def test_chunked_equals_one_shot(self):
        bench = load_benchmark("deepspeech2", scale="tiny")
        index = int(bench.test_idx[0])
        frames = bench.dataset.features[index]
        server, _, shutdown = serve(bench)
        try:
            client = ServeClient(server.url)
            one_shot = client.post(
                "/api/v1/infer", {"input": frames.tolist()}
            )["outputs"][0]
            opened = client.post("/api/v1/session/open", {})
            sid = opened["session"]
            steps = frames.shape[0]
            chunk_preds = []
            for lo, hi in ((0, steps // 3), (steps // 3, steps)):
                reply = client.post(
                    "/api/v1/infer",
                    {"session": sid, "input": frames[lo:hi].tolist()},
                )
                chunk_preds.extend(reply["outputs"][0])
            closed = client.post("/api/v1/session/close", {"session": sid})
            assert closed["transcript"] == one_shot
            assert closed["frames"] == steps
            assert len(chunk_preds) == steps
        finally:
            shutdown()

    @pytest.mark.parametrize("theta", [0.0, 0.05, 0.3])
    def test_session_labels_are_the_offline_frame_labels(self, theta):
        """Every test utterance fed in two chunks: the joined chunk labels
        are the memoized offline forward's per-frame argmax."""
        bench = load_benchmark("deepspeech2", scale="tiny")
        scheme = MemoizationScheme(theta=theta)
        state = ServeState(bench, scheme)
        for index in bench.test_idx:
            frames = bench.dataset.features[index]
            with memoized(bench.model, scheme, ReuseStats()):
                expected = bench.model.forward(frames[None]).argmax(-1)[0]
            sid = state.open_session()["session"]
            split = frames.shape[0] // 3
            labels = []
            for chunk in (frames[:split], frames[split:]):
                labels.extend(state.session_feed(sid, chunk.tolist())["outputs"][0])
            state.close_session(sid)
            assert labels == expected.tolist(), f"utterance {index}"

    def test_unknown_session_is_404(self):
        bench = load_benchmark("deepspeech2", scale="tiny")
        chunk = bench.dataset.features[int(bench.test_idx[0])][:2].tolist()
        server, _, shutdown = serve(bench)
        try:
            client = ServeClient(server.url)
            with pytest.raises(ServeError) as excinfo:
                client.post(
                    "/api/v1/infer",
                    {"session": "deadbeef", "input": chunk},
                )
            assert excinfo.value.status == 404
            with pytest.raises(ServeError) as excinfo:
                client.post("/api/v1/session/close", {"session": "deadbeef"})
            assert excinfo.value.status == 404
        finally:
            shutdown()

    def test_closed_session_cannot_be_fed(self):
        bench = load_benchmark("deepspeech2", scale="tiny")
        frames = bench.dataset.features[int(bench.test_idx[0])]
        server, _, shutdown = serve(bench)
        try:
            client = ServeClient(server.url)
            sid = client.post("/api/v1/session/open", {})["session"]
            client.post("/api/v1/session/close", {"session": sid})
            with pytest.raises(ServeError) as excinfo:
                client.post(
                    "/api/v1/infer",
                    {"session": sid, "input": frames.tolist()},
                )
            assert excinfo.value.status == 404
        finally:
            shutdown()

    def test_bidirectional_model_refuses_sessions(self):
        bench = load_benchmark("eesen", scale="tiny")
        server, _, shutdown = serve(bench)
        try:
            with pytest.raises(ServeError) as excinfo:
                ServeClient(server.url).post("/api/v1/session/open", {})
            assert excinfo.value.status == 400
            assert "unidirectional" in str(excinfo.value)
        finally:
            shutdown()

    def test_sentiment_model_refuses_sessions(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            with pytest.raises(ServeError) as excinfo:
                ServeClient(server.url).post("/api/v1/session/open", {})
            assert excinfo.value.status == 400
        finally:
            shutdown()


class TestLoadgen:
    def test_loadgen_with_verify(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            summary = run_loadgen(
                server.url,
                "imdb",
                requests=6,
                concurrency=3,
                batch=2,
                verify=True,
            )
        finally:
            shutdown()
        assert summary["completed"] == 6
        assert summary["errors"] == []
        assert summary["verify"]["checked"] == 12
        assert summary["verify"]["mismatches"] == 0
        latency = summary["latency_ms"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert summary["req_per_s"] > 0

    def test_loadgen_rejects_wrong_network(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            with pytest.raises(ServeError, match="serves 'imdb'"):
                run_loadgen(server.url, "mnmt", requests=1)
        finally:
            shutdown()

    def test_loadgen_can_retune_first(self, imdb):
        server, state, shutdown = serve(imdb)
        try:
            summary = run_loadgen(
                server.url, "imdb", requests=2, concurrency=1,
                batch=1, theta=0.3,
            )
            assert summary["scheme"]["theta"] == 0.3
            assert state.scheme.theta == 0.3
        finally:
            shutdown()

    def test_scheme_round_trip(self, imdb):
        server, _, shutdown = serve(imdb)
        try:
            info = ServeClient(server.url).get("/api/v1/theta")
        finally:
            shutdown()
        scheme = scheme_from_info(info)
        assert scheme.theta == THETA
        assert scheme.predictor == "bnn"


class TestCLIWiring:
    def test_parse_layer_thetas(self):
        assert parse_layer_thetas(["a=0.1", "b.c=0.2"]) == {
            "a": 0.1, "b.c": 0.2
        }
        with pytest.raises(ValueError):
            parse_layer_thetas(["missing-equals"])
        with pytest.raises(ValueError):
            parse_layer_thetas(["a=not-a-number"])

    def test_parser_accepts_serve_and_loadgen(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "imdb", "--port", "0", "--theta", "0.1",
             "--layer-theta", "lstm=0.2"]
        )
        assert args.command == "serve"
        assert args.layer_theta == ["lstm=0.2"]
        args = parser.parse_args(
            ["loadgen", "imdb", "--url", "http://x:1", "--verify"]
        )
        assert args.command == "loadgen"
        assert args.verify is True
        with pytest.raises(SystemExit):
            parser.parse_args(["loadgen", "imdb"])  # --url required


class TestModelHygiene:
    def test_unwrap_restores_cached_model(self, imdb):
        """Serving never wraps the (shared, cached) zoo model — its
        replicas are memoized clones — so after a server stops, the
        model is exactly as it was for the rest of the suite."""
        from repro.nn.lstm import LSTMLayer

        imdb.ensure_trained()
        tokens = imdb.dataset.tokens[imdb.test_idx[:4]]
        before = imdb.model.predict(tokens)
        _, state, shutdown = serve(imdb)
        shutdown()
        assert isinstance(imdb.model.lstm, LSTMLayer)
        np.testing.assert_array_equal(imdb.model.predict(tokens), before)
