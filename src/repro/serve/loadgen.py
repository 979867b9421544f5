"""Load generator and JSON client for a ``repro serve`` endpoint.

``repro loadgen`` drives a running server with deterministic traffic
drawn from the benchmark's own test split: ``--requests`` requests of
``--batch`` rows each, spread over ``--concurrency`` threads, then
reports client-side latency percentiles (exact, not histogram
estimates), throughput, and the server's reuse metrics.

With ``--verify`` it also trains the *same* benchmark locally (training
is deterministic in ``(network, scale, seed)``, so the local weights are
bitwise the server's weights), evaluates every row it sent through the
offline batch path under the server's live scheme, and diffs the served
predictions bitwise — the end-to-end proof that serving one row at a
time through a warm shared model equals the paper's batch evaluation.
Every response is attributed to the ``scheme_version`` it was served
under and verified against that version's scheme, so verification holds
even across a live retune — including the one ``--retune-theta`` lets
the loadgen itself fire halfway through the run.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.engine import MemoizationScheme, memoized
from repro.core.stats import ReuseStats
from repro.models.benchmark import Benchmark
from repro.models.zoo import build_benchmark
from repro.obs import REQUEST_ID_HEADER, new_request_id

Array = np.ndarray


class ServeError(Exception):
    """An HTTP error from the inference server."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Minimal stdlib JSON client for the ``repro serve`` API."""

    def __init__(
        self, url: str, token: Optional[str] = None, timeout: float = 60.0
    ):
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = timeout
        #: The id the server echoed on the most recent reply — the
        #: handle for finding this client's requests in the server's
        #: ``/api/v1/events``.
        self.last_request_id: Optional[str] = None

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        data = None
        request_id = new_request_id()
        headers = {"Accept-Encoding": "gzip", REQUEST_ID_HEADER: request_id}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(
            self.url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                raw = reply.read()
                self.last_request_id = (
                    reply.headers.get(REQUEST_ID_HEADER) or request_id
                )
                if reply.headers.get("Content-Encoding", "") == "gzip":
                    raw = gzip.decompress(raw)
        except urllib.error.HTTPError as exc:
            detail = exc.read()
            try:
                message = json.loads(detail).get("error", "")
            except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
                message = detail.decode("utf-8", "replace")
            raise ServeError(exc.code, message or exc.reason) from None
        except urllib.error.URLError as exc:
            raise ServeError(0, f"cannot reach {self.url}: {exc.reason}") from exc
        return json.loads(raw)

    def get(self, path: str) -> Dict[str, object]:
        return self.request("GET", path)

    def post(self, path: str, payload: Dict[str, object]) -> Dict[str, object]:
        return self.request("POST", path, payload)

    def put(self, path: str, payload: Dict[str, object]) -> Dict[str, object]:
        return self.request("PUT", path, payload)


# -- deterministic traffic ---------------------------------------------------


def _row_payload(benchmark: Benchmark, index: int) -> list:
    """One test-split row as the JSON the server expects."""
    name = benchmark.name
    if name == "imdb":
        return benchmark.dataset.tokens[index].tolist()
    if name in ("deepspeech2", "eesen"):
        return benchmark.dataset.features[index].tolist()
    if name == "mnmt":
        return benchmark.dataset.source[index].tolist()
    raise ValueError(f"no loadgen traffic source for benchmark {name!r}")


def expected_outputs(
    benchmark: Benchmark, scheme: MemoizationScheme, indices: Sequence[int]
) -> List[object]:
    """The offline batch path's predictions for ``indices``.

    One memoized batch evaluation over all rows at once — exactly the
    :meth:`~repro.models.benchmark.Benchmark.evaluate_memoized` inference
    path, producing the reference the served predictions must equal.
    The predictions are discrete (labels, token sequences), and row
    independence makes them independent of the batch/serve split; the
    float activations behind them are not, since a BLAS GEMM may round a
    row differently with the number of rows it computes at once.
    """
    benchmark.ensure_trained()
    indices = np.asarray(indices, dtype=np.int64)
    model = benchmark.model
    name = benchmark.name
    with memoized(model, scheme, ReuseStats()):
        if name == "imdb":
            return [int(p) for p in model.predict(benchmark.dataset.tokens[indices])]
        if name in ("deepspeech2", "eesen"):
            return [
                list(t)
                for t in model.transcribe(benchmark.dataset.features[indices])
            ]
        if name == "mnmt":
            return [
                list(h)
                for h in model.translate(
                    benchmark.dataset.source[indices],
                    max_len=benchmark.dataset.length + 2,
                    early_stop=False,
                )
            ]
    raise ValueError(f"no verification path for benchmark {name!r}")


def scheme_from_info(info: Dict[str, object]) -> MemoizationScheme:
    """Rebuild a :class:`MemoizationScheme` from a ``GET /theta`` reply."""
    return MemoizationScheme(
        # checks: allow-nonfinite MemoizationScheme.__post_init__ rejects non-finite thetas
        theta=float(info["theta"]),
        predictor=str(info["predictor"]),
        throttle=bool(info["throttle"]),
        layer_thetas=info.get("layer_thetas") or None,
    )


def _percentiles(latencies_ms: Sequence[float]) -> Dict[str, float]:
    values = np.asarray(latencies_ms, dtype=np.float64)
    return {
        "p50": float(np.percentile(values, 50)),
        "p95": float(np.percentile(values, 95)),
        "p99": float(np.percentile(values, 99)),
        "mean": float(values.mean()),
        "max": float(values.max()),
    }


def run_loadgen(
    url: str,
    network: str,
    scale: str = "tiny",
    seed: int = 0,
    requests: int = 32,
    concurrency: int = 4,
    batch: int = 4,
    token: Optional[str] = None,
    verify: bool = False,
    theta: Optional[float] = None,
    retune_theta: Optional[float] = None,
    timeout: float = 60.0,
    out: Optional[str] = None,
) -> Dict[str, object]:
    """Drive a running server; return the traffic + latency summary.

    The traffic is deterministic in ``(network, scale, seed, requests,
    batch)``: request ``i`` carries test-split rows ``i*batch ..
    i*batch+batch-1`` (mod split size), regardless of which thread sends
    it — so two runs against equal servers see identical predictions.

    Args:
        theta: if given, ``PUT /theta`` this global threshold first.
        retune_theta: if given, fire ``PUT /theta`` to this threshold
            from inside the run once about half the requests have
            completed — the live-retune stressor.  The loadgen records
            the scheme each version was served under, so ``verify``
            still checks every row bitwise.
        verify: train the benchmark locally (deterministic, bitwise the
            server's weights) and diff every served prediction against
            the offline batch path under the scheme version that served
            it.
        out: if given, also write the returned summary to this path as
            JSON — the machine-readable loadgen report CI archives.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    client = ServeClient(url, token=token, timeout=timeout)
    health = client.get("/api/v1/health")
    if health.get("model") != network:
        raise ServeError(
            0,
            f"server at {url} serves {health.get('model')!r}, "
            f"loadgen was asked for {network!r}",
        )
    if theta is not None:
        client.put("/api/v1/theta", {"theta": theta})
    scheme_info = client.get("/api/v1/theta")
    #: scheme_version -> the GET/PUT /theta reply that version came from;
    #: verification rebuilds each version's scheme from here.
    scheme_infos: Dict[int, Dict[str, object]] = {
        int(scheme_info["scheme_version"]): scheme_info
    }

    # A fresh (never cached) instance: --verify wraps its model, which
    # must not collide with a same-process server holding the cached one.
    benchmark = build_benchmark(network, scale=scale, seed=seed)
    test_idx = np.asarray(benchmark.test_idx)
    plan = [
        [int(test_idx[(i * batch + j) % len(test_idx)]) for j in range(batch)]
        for i in range(requests)
    ]
    payloads = {
        index: _row_payload(benchmark, index)
        for index in sorted({i for row in plan for i in row})
    }

    next_request = iter(range(requests))
    counter_lock = threading.Lock()
    latencies_ms: List[float] = [0.0] * requests
    responses: List[Optional[Dict[str, object]]] = [None] * requests
    errors: List[str] = []
    # The mid-run retune fires right before request `retune_at` is sent.
    # A worker pulls a new index only after finishing its previous one,
    # so when index retune_at is drawn at least `retune_at - concurrency
    # + 1` requests have already completed under the old scheme — and
    # the PUT returns (pool fully swapped) before request retune_at goes
    # out, so both scheme versions deterministically see traffic.
    retune_at = (
        min(requests - 1, max(concurrency, requests // 2))
        if retune_theta is not None
        else None
    )

    def worker() -> None:
        thread_client = ServeClient(url, token=token, timeout=timeout)
        while True:
            with counter_lock:
                i = next(next_request, None)
            if i is None:
                return
            if i == retune_at:
                try:
                    info = thread_client.put(
                        "/api/v1/theta", {"theta": retune_theta}
                    )
                except ServeError as exc:
                    with counter_lock:
                        errors.append(f"mid-run retune: {exc}")
                else:
                    with counter_lock:
                        scheme_infos[int(info["scheme_version"])] = info
            body = {"inputs": [payloads[index] for index in plan[i]]}
            start = time.perf_counter()
            try:
                reply = thread_client.post("/api/v1/infer", body)
            except ServeError as exc:
                with counter_lock:
                    errors.append(f"request {i}: {exc}")
                continue
            latencies_ms[i] = 1000.0 * (time.perf_counter() - start)
            responses[i] = reply

        # (unreached)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(min(concurrency, requests))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started

    completed = [i for i in range(requests) if responses[i] is not None]
    served_versions = sorted(
        {int(responses[i]["scheme_version"]) for i in completed}
    )
    by_scheme_version: Dict[str, int] = {}
    for i in completed:
        version = str(int(responses[i]["scheme_version"]))
        by_scheme_version[version] = by_scheme_version.get(version, 0) + 1
    # A handful of traced requests: the server-minted request id plus
    # the server's own span breakdown, next to the client's measured
    # latency — enough to find the same requests in /api/v1/events.
    requests_sampled = [
        {
            "request": i,
            "request_id": responses[i].get("request_id"),
            "client_latency_ms": latencies_ms[i],
            "timings_ms": responses[i].get("timings_ms"),
        }
        for i in completed[:5]
    ]
    stage_totals: Dict[str, float] = {}
    stage_counts: Dict[str, int] = {}
    for i in completed:
        for stage, value in (responses[i].get("timings_ms") or {}).items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + float(value)
            stage_counts[stage] = stage_counts.get(stage, 0) + 1
    server_timings_ms = {
        stage: stage_totals[stage] / stage_counts[stage]
        for stage in sorted(stage_totals)
    }
    summary: Dict[str, object] = {
        "url": url,
        "network": network,
        "scale": scale,
        "seed": seed,
        "requests": requests,
        "completed": len(completed),
        "concurrency": concurrency,
        "batch": batch,
        "wall_s": wall_s,
        "req_per_s": len(completed) / wall_s if wall_s > 0 else 0.0,
        "rows_per_s": len(completed) * batch / wall_s if wall_s > 0 else 0.0,
        "scheme": scheme_info,
        "scheme_versions": served_versions,
        "by_scheme_version": by_scheme_version,
        "requests_sampled": requests_sampled,
        "server_timings_ms": server_timings_ms,
        "errors": errors,
    }
    if retune_theta is not None:
        summary["retune_theta"] = retune_theta
    if completed:
        summary["latency_ms"] = _percentiles(
            [latencies_ms[i] for i in completed]
        )
    metrics = client.get("/api/v1/metrics")
    summary["reuse"] = metrics["reuse"]
    summary["pool"] = metrics.get("pool")
    summary["coalesce"] = metrics.get("coalesce")

    if verify:
        # Group served rows by the scheme version that answered them and
        # verify each group against the offline batch path under *that*
        # version's scheme — bitwise equivalence must hold on both sides
        # of any live retune.
        unknown = [v for v in served_versions if v not in scheme_infos]
        if unknown:
            raise ServeError(
                0,
                f"responses carry scheme version(s) {unknown} this "
                "loadgen never observed via /theta (an external retune "
                "raced the run); cannot attribute them to a threshold "
                "for verification",
            )
        checked = 0
        mismatches = []
        for version in served_versions:
            in_version = [
                i for i in completed
                if int(responses[i]["scheme_version"]) == version
            ]
            unique = sorted({idx for i in in_version for idx in plan[i]})
            scheme = scheme_from_info(scheme_infos[version])
            expected = dict(
                zip(unique, expected_outputs(benchmark, scheme, unique))
            )
            for i in in_version:
                for index, output in zip(plan[i], responses[i]["outputs"]):
                    checked += 1
                    if output != expected[index]:
                        mismatches.append(
                            {"request": i, "row": index,
                             "scheme_version": version,
                             "served": output, "expected": expected[index]}
                        )
        summary["verify"] = {
            "checked": checked,
            "versions": served_versions,
            "mismatches": len(mismatches),
            "examples": mismatches[:5],
        }
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return summary
