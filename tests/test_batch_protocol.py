"""Tests for the batched, gzip-compressed coordinator wire protocol.

Protocol 2 — the coordinator's only wire — from the wire up:

- ``WorkQueue.submit_many`` / ``poll_many`` on the file queue;
- ``/api/v1/batch/submit`` and ``/api/v1/batch/poll`` endpoints, spoken
  by ``RemoteWorkQueue`` so one submitter poll tick over an N-task
  sweep costs one round trip (proved with the coordinator's request
  counters: a submitter touches nothing but the batch routes and
  ``requeue``);
- one gzip rule on both request and reply paths (bodies of 1 KiB or
  more), with the body cap enforced on the *decompressed* size;
- transport hardening: Content-Length validation (400 / 411),
  server-side worker-name validation, and bounded-staleness lease-TTL
  refresh.
"""

import gzip
import http.client
import json
import threading
import time

import pytest

from repro.runner import (
    HttpBackend,
    CoordinatorServer,
    QueueTaskFailed,
    RemoteWorkQueue,
    TransportError,
    WorkQueue,
    drain,
    payload_key,
)
from repro.runner.transport.http_common import GZIP_MIN_BYTES

#: Every route an ``HttpBackend`` submitter may reach: the batch routes
#: plus the lease-expiry sweep.  Its request count per poll tick is
#: independent of the sweep size only while nothing else appears.
SUBMITTER_ROUTES = {
    "/api/v1/batch/submit",
    "/api/v1/batch/poll",
    "/api/v1/results/discard_many",
    "/api/v1/requeue",
}


def sample_payload(tag: int = 0):
    return {"kind": "test", "tag": tag}


def echo_handler(payload):
    return {"echo": payload["tag"]}


@pytest.fixture()
def coordinator(tmp_path):
    queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
    server = CoordinatorServer(queue, port=0, quiet=True)
    server.serve_in_thread()
    yield server
    server.stop()


@pytest.fixture()
def remote(coordinator):
    return RemoteWorkQueue(coordinator.url, retries=1, backoff=0.05)


class TestFileQueueBatchDefaults:
    """The file queue's per-task loops behind the batch contract."""

    def test_submit_many_matches_per_task_ids(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        payloads = [sample_payload(i) for i in range(4)]
        ids = queue.submit_many(payloads)
        assert ids == [payload_key(p) for p in payloads]
        assert queue.pending_count() == 4
        # Idempotent, like submit.
        assert queue.submit_many(payloads) == ids
        assert queue.pending_count() == 4

    def test_submit_many_empty(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        assert queue.submit_many([]) == []

    def test_poll_many_reports_every_state(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        done, poisoned, leased, missing = (
            sample_payload(0),
            sample_payload(1),
            sample_payload(2),
            sample_payload(3),
        )
        ids = queue.submit_many([done, poisoned, leased])

        task = queue.claim()  # ids are sorted; claim order follows
        claimed = {task.task_id}
        queue.results.put(task.task_id, {"ok": True})
        queue.complete(task)
        task = queue.claim()
        claimed.add(task.task_id)
        queue.fail(task, error="RuntimeError: poison")
        task = queue.claim()
        claimed.add(task.task_id)
        assert claimed == set(ids)

        snapshot = queue.poll_many(ids + [payload_key(missing)])
        states = {
            key: (
                entry["result"] is not None,
                entry["failed"],
                entry["lease_live"],
            )
            for key, entry in snapshot.items()
        }
        by_payload = {payload_key(p): p["tag"] for p in (done, poisoned, leased)}
        for key, (has_result, failed, lease_live) in states.items():
            tag = by_payload.get(key)
            if has_result:
                assert not failed and not lease_live
                assert snapshot[key]["result"] == {"ok": True}
            elif failed:
                assert "poison" in snapshot[key]["error"]
                assert tag is not None
            elif lease_live:
                assert tag is not None
            else:  # the never-submitted id: all states negative
                assert key == payload_key(missing)
        assert sum(1 for s in states.values() if s[0]) == 1
        assert sum(1 for s in states.values() if s[1]) == 1
        assert sum(1 for s in states.values() if s[2]) == 1


class TestRemoteBatch:
    def test_batch_submit_round_trip(self, coordinator, remote):
        payloads = [sample_payload(i) for i in range(5)]
        ids = remote.submit_many(payloads)
        assert ids == [payload_key(p) for p in payloads]
        assert coordinator.queue.pending_count() == 5
        assert coordinator.request_counts == {"/api/v1/batch/submit": 1}

    def test_poll_many_is_one_round_trip(self, coordinator, remote):
        ids = remote.submit_many([sample_payload(i) for i in range(10)])
        before = remote.round_trips
        snapshot = remote.poll_many(ids)
        assert remote.round_trips == before + 1
        assert coordinator.request_counts["/api/v1/batch/poll"] == 1
        assert set(snapshot) == set(ids)
        for entry in snapshot.values():
            assert entry["result"] is None
            assert not entry["failed"]
            assert not entry["lease_live"]

    def test_poll_many_empty_is_free(self, remote):
        before = remote.round_trips
        assert remote.poll_many([]) == {}
        assert remote.submit_many([]) == []
        assert remote.round_trips == before

    def test_poll_many_sees_results_failures_and_leases(self, remote):
        ids = remote.submit_many([sample_payload(i) for i in range(3)])
        first = remote.claim()
        remote.results.put(first.task_id, {"ok": True})
        remote.complete(first)
        second = remote.claim()
        remote.fail(second, error="RuntimeError: poison")
        third = remote.claim()

        snapshot = remote.poll_many(ids)
        assert snapshot[first.task_id]["result"] == {"ok": True}
        assert snapshot[second.task_id]["failed"]
        assert "poison" in snapshot[second.task_id]["error"]
        assert snapshot[third.task_id]["lease_live"]

    def test_batch_poll_rejects_bad_ids(self, remote):
        with pytest.raises(TransportError, match="invalid task id"):
            remote.poll_many(["../../etc/passwd"])

    def test_discard_many_is_one_round_trip(self, coordinator, remote):
        blobs = [sample_payload(i) for i in range(5)]
        keys = [payload_key(p) for p in blobs]
        for key, blob in zip(keys, blobs):
            coordinator.queue.results.put(key, blob)
        remote.results.discard_many(keys)
        assert all(coordinator.queue.results.get(key) is None for key in keys)
        assert coordinator.request_counts == {
            "/api/v1/results/discard_many": 1
        }

    def test_requests_chunk_below_the_server_cap(
        self, coordinator, remote, monkeypatch
    ):
        import repro.runner.transport.client as client_module

        monkeypatch.setattr(client_module, "BATCH_CHUNK", 4)
        ids = remote.submit_many([sample_payload(i) for i in range(10)])
        assert len(ids) == 10
        assert coordinator.queue.pending_count() == 10
        assert coordinator.request_counts["/api/v1/batch/submit"] == 3
        snapshot = remote.poll_many(ids)
        assert set(snapshot) == set(ids)
        assert coordinator.request_counts["/api/v1/batch/poll"] == 3

    def test_batch_submit_rejects_non_object_payloads(self, remote):
        with pytest.raises(TransportError, match="payloads"):
            remote._call("batch/submit", {"payloads": [1, 2]})

    def test_batch_poll_defers_results_past_the_reply_budget(self, tmp_path):
        """A reply inlines result payloads only up to the body budget;
        the rest look pending and arrive on subsequent polls, so a
        warm bench-scale sweep can't force one giant reply."""
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        server = CoordinatorServer(
            queue, port=0, quiet=True, max_body_bytes=10_000
        )
        server.serve_in_thread()
        try:
            client = RemoteWorkQueue(server.url, retries=1, backoff=0.05)
            blobs = [{"blob": str(i) * 6_000} for i in range(3)]
            keys = [payload_key(blob) for blob in blobs]
            for key, blob in zip(keys, blobs):
                queue.results.put(key, blob)
            collected = {}
            rounds = 0
            pending = list(keys)
            while pending and rounds < 5:
                snapshot = client.poll_many(pending)
                for key in pending:
                    result = (snapshot.get(key) or {}).get("result")
                    if result is not None:
                        collected[key] = result
                pending = [key for key in pending if key not in collected]
                rounds += 1
            assert collected == dict(zip(keys, blobs))
            assert rounds >= 2  # the budget forced progressive delivery
        finally:
            server.stop()

    def test_duplicate_ids_cannot_retro_defer_a_delivered_result(
        self, tmp_path
    ):
        """A duplicate id revisits the same entry dict; with the budget
        spent it must not null out the result its first occurrence
        already delivered (ids are deduped before the budget walk)."""
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        server = CoordinatorServer(
            queue, port=0, quiet=True, max_body_bytes=10_000
        )
        server.serve_in_thread()
        try:
            blob = {"blob": "d" * 6_000}  # > half the budget
            key = payload_key(blob)
            queue.results.put(key, blob)
            client = RemoteWorkQueue(server.url, retries=1, backoff=0.05)
            # Raw call: bypasses the client's own dedup to hit the
            # server path directly.
            reply = client._call("batch/poll", {"task_ids": [key, key]})
            assert reply["tasks"][key]["result"] == blob
        finally:
            server.stop()

    def test_deferred_cache_hits_are_not_resubmitted(self, tmp_path):
        """Budget-deferred results are hits, not misses: the submitter
        must wait for them instead of re-uploading their payloads."""
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        server = CoordinatorServer(
            queue, port=0, quiet=True, max_body_bytes=10_000
        )
        server.serve_in_thread()
        try:
            payloads = [sample_payload(i) for i in range(3)]
            blobs = [{"blob": str(i) * 6_000} for i in range(3)]
            for payload, blob in zip(payloads, blobs):
                queue.results.put(payload_key(payload), blob)
            backend = HttpBackend(
                server.url, drain=False, timeout=30, poll_interval=0.05
            )
            assert backend.execute(payloads) == blobs
            assert server.request_counts["/api/v1/batch/submit"] == 0
            assert server.request_counts["/api/v1/batch/poll"] >= 2
        finally:
            server.stop()

    def test_batch_submit_item_count_capped(self, remote):
        payloads = [{"t": i} for i in range(10_001)]
        with pytest.raises(TransportError) as excinfo:
            remote._call("batch/submit", {"payloads": payloads})
        assert excinfo.value.status == 413


class TestRoundTripsPerTick:
    """The tentpole's acceptance: poll cost is O(ticks), not O(N x ticks)."""

    def test_cache_hit_sweep_costs_one_round_trip(self, coordinator):
        queue = coordinator.queue
        payloads = [sample_payload(i) for i in range(8)]
        for payload in payloads:
            queue.results.put(payload_key(payload), echo_handler(payload))
        backend = HttpBackend(coordinator.url, drain=False, timeout=30)
        results = backend.execute(payloads)
        assert results == [echo_handler(p) for p in payloads]
        # Everything was already done: one batch/poll answered all 8.
        assert coordinator.request_counts["/api/v1/batch/poll"] == 1
        assert set(coordinator.request_counts) <= SUBMITTER_ROUTES

    def test_waiting_sweep_never_touches_per_task_endpoints(
        self, coordinator
    ):
        payloads = [sample_payload(i) for i in range(6)]
        worker = threading.Thread(
            target=drain,
            args=(coordinator.queue, echo_handler),
            kwargs={"idle_timeout": 10.0, "poll_interval": 0.02},
        )
        worker.start()
        try:
            backend = HttpBackend(
                coordinator.url, drain=False, timeout=60, poll_interval=0.05
            )
            results = backend.execute(payloads)
        finally:
            worker.join()
        assert results == [echo_handler(p) for p in payloads]
        # One batched submit, batched polls, nothing per task: the
        # request count per tick is independent of the sweep size.
        assert coordinator.request_counts["/api/v1/batch/submit"] == 1
        assert coordinator.request_counts["/api/v1/batch/poll"] >= 1
        assert set(coordinator.request_counts) <= SUBMITTER_ROUTES

    def test_no_cache_sweep_discards_in_one_round_trip(self, coordinator):
        payloads = [sample_payload(i) for i in range(6)]
        for payload in payloads:
            coordinator.queue.results.put(
                payload_key(payload), {"stale": True}
            )
        worker = threading.Thread(
            target=drain,
            args=(coordinator.queue, echo_handler),
            kwargs={"idle_timeout": 10.0, "poll_interval": 0.02},
        )
        worker.start()
        try:
            backend = HttpBackend(
                coordinator.url,
                drain=False,
                timeout=60,
                poll_interval=0.05,
                reuse_results=False,
            )
            results = backend.execute(payloads)
        finally:
            worker.join()
        assert results == [echo_handler(p) for p in payloads]
        assert coordinator.request_counts["/api/v1/results/discard_many"] == 1
        assert set(coordinator.request_counts) <= SUBMITTER_ROUTES

    def test_failed_task_surfaces_through_batch_poll(self, coordinator):
        payload = sample_payload(13)
        queue = coordinator.queue
        queue.submit(payload)
        task = queue.claim()
        queue.fail(task, error="RuntimeError: deterministic poison")
        backend = HttpBackend(coordinator.url, drain=False, timeout=30)
        with pytest.raises(QueueTaskFailed, match="deterministic poison"):
            backend.execute([payload])
        assert set(coordinator.request_counts) <= SUBMITTER_ROUTES


class TestGzip:
    def test_request_bodies_compressed(self, coordinator, remote):
        blob = {"blob": "x" * 50_000}
        key = payload_key(blob)
        remote.results.put(key, blob)
        # Stored intact on the coordinator's disk ...
        assert coordinator.queue.results.get(key) == blob
        # ... but the wire carried the compressed form.
        assert remote.bytes_sent < 10_000

    def test_small_request_bodies_stay_identity(self, coordinator, remote):
        """Below GZIP_MIN_BYTES a request goes out as plain JSON — the
        rule the coordinator applies to its replies."""
        body = {"key": payload_key(sample_payload()), "result": {"ok": True}}
        assert len(json.dumps(body)) < GZIP_MIN_BYTES
        remote.results.put(body["key"], body["result"])
        assert remote.bytes_sent == len(json.dumps(body))

    def test_replies_compressed_for_gzip_clients(self, coordinator, remote):
        blob = {"blob": "y" * 50_000}
        key = payload_key(blob)
        coordinator.queue.results.put(key, blob)
        assert remote.poll_many([key])[key]["result"] == blob
        assert remote.bytes_received < 10_000

    def test_reply_compression_visible_on_the_wire(self, coordinator):
        blob = {"blob": "z" * 50_000}
        key = payload_key(blob)
        coordinator.queue.results.put(key, blob)
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST",
                "/api/v1/batch/poll",
                body=json.dumps({"task_ids": [key]}),
                headers={
                    "Content-Type": "application/json",
                    "Accept-Encoding": "gzip",
                },
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Encoding") == "gzip"
            assert response.getheader("X-Repro-Protocol") == "2"
            reply = json.loads(gzip.decompress(response.read()))
            assert reply["tasks"][key]["result"] == blob
        finally:
            conn.close()

    def test_gzip_q0_refusal_honored(self, coordinator):
        """`Accept-Encoding: gzip;q=0` is an explicit refusal (RFC
        9110): the reply must come back identity-encoded."""
        blob = {"blob": "q" * 50_000}
        key = payload_key(blob)
        coordinator.queue.results.put(key, blob)
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST",
                "/api/v1/batch/poll",
                body=json.dumps({"task_ids": [key]}),
                headers={
                    "Content-Type": "application/json",
                    "Accept-Encoding": "gzip;q=0",
                },
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Encoding") is None
            reply = json.loads(response.read())
            assert reply["tasks"][key]["result"] == blob
        finally:
            conn.close()

    def test_small_replies_stay_identity(self, coordinator):
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "GET", "/api/v1/stats", headers={"Accept-Encoding": "gzip"}
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Encoding") is None
            json.loads(response.read())
        finally:
            conn.close()

    def test_decompressed_size_limit_enforced(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60)
        server = CoordinatorServer(
            queue, port=0, quiet=True, max_body_bytes=5_000
        )
        server.serve_in_thread()
        try:
            client = RemoteWorkQueue(server.url, retries=1, backoff=0.05)
            blob = {"blob": "x" * 50_000}  # ~300 bytes gzipped
            with pytest.raises(TransportError) as excinfo:
                client.results.put(payload_key(blob), blob)
            assert excinfo.value.status == 413
            assert "decompressed" in str(excinfo.value)
        finally:
            server.stop()

    def test_corrupt_gzip_body_is_400(self, coordinator):
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST",
                "/api/v1/requeue",
                body=b"not gzip at all",
                headers={
                    "Content-Type": "application/json",
                    "Content-Encoding": "gzip",
                },
            )
            response = conn.getresponse()
            assert response.status == 400
            assert b"gzip" in response.read()
        finally:
            conn.close()

    def test_unknown_content_encoding_is_415(self, coordinator):
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST",
                "/api/v1/requeue",
                body=b"{}",
                headers={
                    "Content-Type": "application/json",
                    "Content-Encoding": "br",
                },
            )
            assert conn.getresponse().status == 415
        finally:
            conn.close()

class TestBodyLengthValidation:
    """`_read_body` never trusts Content-Length (PR 4 review fix)."""

    def _post(self, coordinator, headers, body=None):
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/api/v1/requeue", body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_missing_content_length_is_411(self, coordinator):
        # http.client always fabricates a Content-Length for POST, so
        # speak raw HTTP to really omit the header.
        import socket

        host, port = coordinator.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                b"POST /api/v1/requeue HTTP/1.1\r\n"
                b"Host: coordinator\r\n\r\n"
            )
            reply = sock.recv(65536)
        assert reply.split(b"\r\n", 1)[0].split(b" ")[1] == b"411"
        assert b"Content-Length" in reply

    def test_negative_content_length_is_400(self, coordinator):
        status, detail = self._post(
            coordinator, {"Content-Length": "-1"}, body=b""
        )
        assert status == 400
        assert b"Content-Length" in detail

    def test_non_numeric_content_length_is_400(self, coordinator):
        status, detail = self._post(
            coordinator, {"Content-Length": "banana"}, body=b""
        )
        assert status == 400
        assert b"Content-Length" in detail

    def test_zero_content_length_still_works(self, coordinator):
        status, detail = self._post(
            coordinator, {"Content-Length": "0"}, body=b""
        )
        assert status == 200
        assert json.loads(detail) == {"requeued": 0}


class TestWorkerNameValidation:
    """`/claim` sanitizes worker tags before they name lease files."""

    @pytest.mark.parametrize(
        "worker",
        ["../evil", "a/b", "a b", "dot.dot", "x" * 65],
        ids=["traversal", "slash", "space", "dot", "too-long"],
    )
    def test_garbage_worker_names_rejected(self, remote, worker):
        with pytest.raises(TransportError, match="invalid worker"):
            remote.claim(worker)

    def test_non_string_worker_rejected(self, remote):
        with pytest.raises(TransportError, match="invalid worker"):
            remote._call("claim", {"worker": {"name": "object"}})

    def test_valid_and_empty_workers_accepted(self, remote):
        remote.submit_many([sample_payload()])
        task = remote.claim("fleet-worker_1")
        assert task is not None
        remote.complete(task)
        assert remote.claim("") is None  # empty tag = anonymous, fine


class TestLeaseTtlRefresh:
    def test_ttl_refreshes_after_coordinator_restart(self, tmp_path):
        root = tmp_path / "q"
        first = CoordinatorServer(
            WorkQueue(root, lease_ttl=60), port=0, quiet=True
        )
        first.serve_in_thread()
        port = first.server_address[1]
        client = RemoteWorkQueue(
            first.url,
            retries=1,
            backoff=0.05,
            timeout=2.0,
            lease_ttl_max_age=0.05,
        )
        assert client.lease_ttl == 60.0
        first.stop()
        second = CoordinatorServer(
            WorkQueue(root, lease_ttl=120), port=port, quiet=True
        )
        second.serve_in_thread()
        try:
            time.sleep(0.06)  # past the staleness window
            assert client.lease_ttl == 120.0
        finally:
            second.stop()

    def test_stale_ttl_survives_an_unreachable_coordinator(self, tmp_path):
        server = CoordinatorServer(
            WorkQueue(tmp_path / "q", lease_ttl=60), port=0, quiet=True
        )
        server.serve_in_thread()
        client = RemoteWorkQueue(
            server.url,
            retries=0,
            backoff=0.01,
            timeout=0.5,
            lease_ttl_max_age=0.0,
        )
        assert client.lease_ttl == 60.0
        server.stop()
        # Refresh fails; the stale value is better than an exception
        # mid-heartbeat.
        assert client.lease_ttl == 60.0

    def test_fresh_ttl_is_not_refetched(self, coordinator, remote):
        assert remote.lease_ttl == 60.0
        trips = remote.round_trips
        assert remote.lease_ttl == 60.0  # within the staleness window
        assert remote.round_trips == trips
