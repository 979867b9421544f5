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

import threading

import numpy as np
import pytest

from repro.core.engine import MemoizationScheme
from repro.models.zoo import load_benchmark
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
from repro.serve.state import LatencyHistogram

THETA = 0.05


def serve(benchmark, scheme=None, **server_kwargs):
    """Start a server for `benchmark`; caller must call `shutdown`."""
    state = ServeState(
        benchmark, scheme or MemoizationScheme(theta=THETA)
    )
    server = InferenceServer(state, quiet=True, **server_kwargs)
    server.serve_in_thread()

    def shutdown():
        server.stop()
        state.unwrap()

    return server, state, shutdown


@pytest.fixture
def imdb():
    return load_benchmark("imdb", scale="tiny")


@pytest.fixture
def imdb_rows(imdb):
    indices = [int(i) for i in imdb.test_idx[:6]]
    return indices, [imdb.dataset.tokens[i].tolist() for i in indices]


class TestLatencyHistogram:
    def test_counts_and_summary(self):
        hist = LatencyHistogram(bounds_ms=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 5000.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["overflow"] == 1
        assert snap["max_ms"] == 5000.0
        cumulative = [bucket["count"] for bucket in snap["buckets"]]
        assert cumulative == [1, 2, 3]

    def test_empty(self):
        snap = LatencyHistogram().snapshot()
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
        """ServeState wraps the (shared, cached) zoo model; unwrap must
        hand it back exactly as it was for the rest of the suite."""
        from repro.nn.lstm import LSTMLayer

        imdb.ensure_trained()
        tokens = imdb.dataset.tokens[imdb.test_idx[:4]]
        before = imdb.model.predict(tokens)
        _, state, shutdown = serve(imdb)
        shutdown()
        assert isinstance(imdb.model.lstm, LSTMLayer)
        np.testing.assert_array_equal(imdb.model.predict(tokens), before)
