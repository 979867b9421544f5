"""Tests for the HTTP coordinator transport (real localhost sockets).

The coordinator serves a ``WorkQueue`` over REST; ``RemoteWorkQueue``
speaks the same :class:`~repro.runner.queue.TaskQueue` contract back.
This suite covers the wire protocol (lifecycle, idempotent completes,
validation), shared-token auth, retry-with-backoff against a flaky /
restarting coordinator, lease expiry and quarantine over the network,
worker drain loops, and the claim-atomicity hammer: many threads
claiming through the server must never double-claim or lose a task.
"""

import gzip
import http.client
import json
import socket
import sys
import threading
import time

import pytest
from helpers import count_connections

from repro.runner import (
    CoordinatorAuthError,
    CoordinatorServer,
    RemoteWorkQueue,
    TransportError,
    WorkQueue,
    default_owner,
    drain,
    lease_owner,
    payload_key,
)
from repro.runner.transport import http_common
from repro.runner.transport.http_common import (
    GZIP_MIN_BYTES,
    JsonApiHandler,
    JsonApiServer,
    KeepAliveClient,
)


def sample_payload(tag: int = 0):
    return {"kind": "test", "tag": tag}


def echo_handler(payload):
    return {"echo": payload["tag"]}


def status(queue, task_id):
    """One task's ``poll_many`` entry: result, failed, error, lease_live."""
    return queue.poll_many([task_id])[task_id]


@pytest.fixture()
def coordinator(tmp_path):
    """A live coordinator on an ephemeral loopback port, plus its queue."""
    queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
    server = CoordinatorServer(queue, port=0, quiet=True)
    server.serve_in_thread()
    yield server
    server.stop()


@pytest.fixture()
def remote(coordinator):
    """A client for the fixture coordinator (fail fast: one retry)."""
    return RemoteWorkQueue(coordinator.url, retries=1, backoff=0.05)


class TestRemoteLifecycle:
    def test_submit_claim_complete(self, coordinator, remote):
        (task_id,) = remote.submit_many([sample_payload()])
        assert task_id == payload_key(sample_payload())
        assert remote.pending_count() == 1

        task = remote.claim("net-worker")
        assert task is not None
        assert task.task_id == task_id
        assert task.payload == sample_payload()
        assert task.lease_path is None  # remote claims hold only the nonce
        assert remote.pending_count() == 0
        assert remote.active_count() == 1

        remote.results.put(task.task_id, {"done": True})
        remote.complete(task)
        assert remote.active_count() == 0
        assert status(remote, task_id)["result"] == {"done": True}
        # ... and the result really lives in the coordinator's queue dir.
        assert coordinator.queue.results.get(task_id) == {"done": True}

    def test_claim_on_empty_queue(self, remote):
        assert remote.claim() is None

    def test_submit_is_idempotent(self, remote):
        first = remote.submit_many([sample_payload()])
        assert remote.submit_many([sample_payload()]) == first
        assert remote.pending_count() == 1

    def test_complete_is_idempotent(self, remote):
        remote.submit_many([sample_payload()])
        task = remote.claim()
        remote.results.put(task.task_id, {"done": True})
        remote.complete(task)
        remote.complete(task)  # lease already gone: harmless no-op
        assert remote.active_count() == 0
        assert status(remote, task.task_id)["result"] == {"done": True}

    def test_extend_heartbeats_the_lease(self, coordinator, remote):
        remote.submit_many([sample_payload()])
        task = remote.claim()
        lease_file = coordinator.queue.active_dir / (
            f"{task.task_id}.{task.lease}.json"
        )
        before = lease_file.stat().st_mtime
        time.sleep(0.05)
        remote.extend(task)
        assert lease_file.stat().st_mtime >= before
        assert status(remote, task.task_id)["lease_live"]

    def test_lease_ttl_comes_from_the_coordinator(self, remote):
        assert remote.lease_ttl == 60.0

    def test_results_discard(self, remote):
        key = payload_key(sample_payload())
        remote.results.put(key, {"done": True})
        assert status(remote, key)["result"] == {"done": True}
        remote.results.discard_many([key])
        assert status(remote, key)["result"] is None

    def test_mixed_local_and_remote_participants(self, coordinator, remote):
        """A filesystem worker and a network worker share one queue."""
        local = coordinator.queue
        remote.submit_many([sample_payload(1)])
        local.submit(sample_payload(2))
        assert local.pending_count() == 2
        seen = set()
        for queue in (local, remote):
            task = queue.claim()
            seen.add(task.payload["tag"])
            queue.results.put(task.task_id, echo_handler(task.payload))
            queue.complete(task)
        assert seen == {1, 2}


class TestLeaseTtlValidation:
    """The coordinator-fetched TTL is validated before it is cached —
    ``json.loads`` accepts NaN/Infinity, and a poisoned TTL would break
    every heartbeat-interval comparison silently."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, "bogus"])
    def test_bad_ttl_from_wire_is_a_transport_error(self, monkeypatch, bad):
        client = RemoteWorkQueue("http://127.0.0.1:9", retries=0)
        monkeypatch.setattr(client, "stats", lambda: {"lease_ttl": bad})
        with pytest.raises(TransportError, match="lease_ttl"):
            client.lease_ttl

    def test_bad_refresh_keeps_the_previous_ttl(self, monkeypatch):
        client = RemoteWorkQueue("http://127.0.0.1:9", retries=0)
        monkeypatch.setattr(client, "stats", lambda: {"lease_ttl": 60.0})
        assert client.lease_ttl == 60.0
        # Age the cache past staleness, then poison the wire: the
        # stale-but-sane value wins over a fresh-but-invalid one.
        monkeypatch.setattr(client, "stats", lambda: {"lease_ttl": float("nan")})
        client._lease_ttl_fetched -= client.lease_ttl_max_age + 1
        assert client.lease_ttl == 60.0


class TestOwnership:
    def test_lease_owner_includes_hostname_and_pid(self, remote):
        remote.submit_many([sample_payload()])
        task = remote.claim("w1")
        owner = lease_owner(task.lease)
        assert owner.startswith("w1-")
        assert owner.endswith(default_owner())  # host + pid of this test

    def test_stats_report_active_owners(self, remote):
        remote.submit_many([sample_payload()])
        task = remote.claim("w1")
        stats = remote.stats()
        assert stats["active"] == 1
        assert stats["owners"] == [lease_owner(task.lease)]
        assert remote.active_owners() == [lease_owner(task.lease)]


class TestFailureAndRecovery:
    def test_fail_quarantines_with_error(self, remote):
        remote.submit_many([sample_payload()])
        task = remote.claim()
        remote.fail(task, error="RuntimeError: boom over http")
        assert remote.failed_count() == 1
        entry = status(remote, task.task_id)
        assert entry["failed"]
        assert "boom over http" in entry["error"]
        assert remote.claim() is None  # sticky: not re-queued

    def test_expired_lease_requeues_over_http(self, coordinator, remote):
        remote.submit_many([sample_payload()])
        doomed = remote.claim("doomed")
        # Back-date the lease on the coordinator's disk: the worker died.
        lease_file = coordinator.queue.active_dir / (
            f"{doomed.task_id}.{doomed.lease}.json"
        )
        import os

        # checks: allow-wall-clock lease files expire by mtime, which is wall-clock epoch seconds
        past = time.time() - 10_000
        os.utime(lease_file, (past, past))
        assert not status(remote, doomed.task_id)["lease_live"]
        assert remote.requeue_expired() == 1
        rescued = remote.claim("rescue")
        assert rescued is not None
        assert rescued.task_id == doomed.task_id
        assert rescued.payload == doomed.payload

    def test_drain_loop_over_http(self, remote):
        ids = remote.submit_many([sample_payload(i) for i in range(3)])
        assert drain(remote, echo_handler, idle_timeout=0.0) == 3
        for i, task_id in enumerate(ids):
            assert status(remote, task_id)["result"] == {"echo": i}
        assert remote.pending_count() == 0
        assert remote.active_count() == 0

    def test_drain_quarantines_poison_over_http(self, remote, capsys):
        remote.submit_many([sample_payload(0), sample_payload(1)])

        def fragile(payload):
            if payload["tag"] == 0:
                raise RuntimeError("poison")
            return echo_handler(payload)

        completed = drain(remote, fragile, idle_timeout=0.0)
        assert completed == 1
        assert remote.failed_count() == 1
        assert "poison" in capsys.readouterr().err


class TestAuth:
    @pytest.fixture()
    def secured(self, tmp_path):
        queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
        server = CoordinatorServer(queue, port=0, token="s3cret", quiet=True)
        server.serve_in_thread()
        yield server
        server.stop()

    def test_right_token_accepted(self, secured):
        client = RemoteWorkQueue(secured.url, token="s3cret", retries=0)
        assert client.submit_many([sample_payload()]) == [
            payload_key(sample_payload())
        ]

    def test_missing_token_rejected(self, secured):
        client = RemoteWorkQueue(secured.url, retries=0)
        with pytest.raises(CoordinatorAuthError):
            client.stats()

    def test_wrong_token_rejected_without_retries(self, secured):
        client = RemoteWorkQueue(secured.url, token="guess", retries=5)
        start = time.monotonic()
        with pytest.raises(CoordinatorAuthError):
            client.submit_many([sample_payload()])
        # Auth failures must fail fast, not burn the retry budget.
        assert time.monotonic() - start < 1.0
        assert secured.queue.pending_count() == 0  # never touched the queue


class TestWireValidation:
    def test_unknown_endpoint_is_not_retried(self, remote):
        start = time.monotonic()
        with pytest.raises(TransportError, match="unknown endpoint"):
            remote._call("teleport", {})
        assert time.monotonic() - start < 1.0

    def test_per_task_routes_answer_404(self, remote):
        """Protocol 2 is the only wire: the per-task routes it replaced
        are unknown endpoints, rejected without a retry."""
        for endpoint in (
            "submit",
            "failed",
            "lease",
            "results/get",
            "results/has",
            "results/discard",
        ):
            trips = remote.round_trips
            with pytest.raises(TransportError) as excinfo:
                remote._call(endpoint, {})
            assert excinfo.value.status == 404
            assert remote.round_trips == trips + 1

    @pytest.mark.parametrize(
        "reply",
        [
            {},
            {"task_id": 7, "payload": {}, "lease": "lease-1"},
            {"task_id": "t", "payload": [1, 2], "lease": "lease-1"},
            {"task_id": "t", "payload": {}, "lease": None},
            {"task_id": "t", "payload": {}},
        ],
        ids=["empty", "int-id", "list-payload", "null-lease", "no-lease"],
    )
    def test_malformed_claim_reply_is_a_transport_error(
        self, monkeypatch, reply
    ):
        client = RemoteWorkQueue("http://127.0.0.1:9", retries=0)
        monkeypatch.setattr(client, "_call", lambda *args, **kwargs: reply)
        with pytest.raises(TransportError, match="malformed claim"):
            client.claim("w1")

    def test_invalid_task_id_rejected(self, remote):
        with pytest.raises(TransportError, match="invalid task id"):
            remote.poll_many(["../../etc/passwd"])

    def test_invalid_lease_rejected(self, remote):
        from repro.runner import Task

        remote.submit_many([sample_payload()])
        claimed = remote.claim()
        forged = Task(
            task_id=claimed.task_id,
            payload={},
            lease="../escape",
        )
        with pytest.raises(TransportError, match="invalid lease"):
            remote.complete(forged)

    def test_submit_requires_object_payload(self, coordinator, remote):
        """One non-object payload rejects the whole batch: nothing of
        it is enqueued."""
        with pytest.raises(TransportError, match="payloads") as excinfo:
            remote._call(
                "batch/submit", {"payloads": [sample_payload(), [1, 2, 3]]}
            )
        assert excinfo.value.status == 400
        assert coordinator.queue.pending_count() == 0


class TestRetries:
    def test_unreachable_coordinator_raises_after_bounded_retries(self):
        client = RemoteWorkQueue(
            "http://127.0.0.1:9", retries=2, backoff=0.01, timeout=0.5
        )
        with pytest.raises(TransportError, match="unreachable"):
            client.stats()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            RemoteWorkQueue("http://127.0.0.1:9", retries=-1)

    def test_backoff_rides_out_a_late_coordinator(self, tmp_path):
        """The coordinator comes up *after* the first attempts fail: the
        client's backoff must find it instead of giving up."""
        queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
        placeholder = CoordinatorServer(queue, port=0, quiet=True)
        port = placeholder.server_address[1]
        placeholder.server_close()  # free the port but remember it

        started = {}

        def come_up_late():
            time.sleep(0.4)
            server = CoordinatorServer(
                queue, port=port, quiet=True
            )
            server.serve_in_thread()
            started["server"] = server

        thread = threading.Thread(target=come_up_late)
        thread.start()
        try:
            client = RemoteWorkQueue(
                f"http://127.0.0.1:{port}",
                retries=8,
                backoff=0.1,
                timeout=2.0,
            )
            assert client.submit_many([sample_payload()]) == [
                payload_key(sample_payload())
            ]
        finally:
            thread.join()
            started["server"].stop()


class TestKeepAlive:
    """HTTP/1.1 keep-alive sockets must never desync."""

    def test_two_requests_on_one_connection(self, coordinator):
        import http.client
        import json as jsonlib

        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = jsonlib.dumps({"payloads": [sample_payload()]})
            conn.request(
                "POST", "/api/v1/batch/submit", body=body,
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 200
            first.read()
            # Same socket, second request: the body of the first must
            # have been fully consumed.
            conn.request("GET", "/api/v1/stats")
            second = conn.getresponse()
            assert second.status == 200
            assert jsonlib.loads(second.read())["pending"] == 1
        finally:
            conn.close()

    def test_error_replies_close_the_connection(self, tmp_path):
        """An error sent before the body was read (bad token) must not
        leave the unread body to be parsed as the next request — the
        server closes the connection instead."""
        import http.client
        import json as jsonlib

        queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
        server = CoordinatorServer(queue, port=0, token="s3cret", quiet=True)
        server.serve_in_thread()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request(
                    "POST", "/api/v1/batch/submit",
                    body=jsonlib.dumps({"payloads": [sample_payload()]}),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 401
                assert response.getheader("Connection") == "close"
                response.read()
            finally:
                conn.close()
        finally:
            server.stop()

    def test_round_trips_on_one_connection_do_not_stall(self, coordinator):
        """A kept-alive round trip must not wait for a delayed ACK.
        Written as headers, then body, on a Nagle socket, each reply's
        body waited ~40 ms for the client to acknowledge the headers."""
        host, port = coordinator.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/api/v1/stats")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 kept-alive round trips took {elapsed:.3f} s"

    def test_an_ended_threads_connection_is_closed(self, coordinator):
        """A client used from short-lived threads (a heartbeat thread per
        task) holds one connection per live thread, not one per thread
        it ever saw."""
        client = KeepAliveClient(coordinator.url)
        try:
            for _ in range(3):
                thread = threading.Thread(
                    target=client.request, args=("GET", "/api/v1/stats")
                )
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert client.request("GET", "/api/v1/stats").status == 200
            assert list(client._connections) == [threading.current_thread()]
        finally:
            client.close()

    def test_stop_closes_kept_connections(self, tmp_path):
        """A stopped coordinator's handler threads must not keep answering
        clients that still hold a connection."""
        server = CoordinatorServer(
            WorkQueue(tmp_path / "queue", lease_ttl=60), port=0, quiet=True
        )
        server.serve_in_thread()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/api/v1/stats")
            conn.getresponse().read()
            server.stop()
            with pytest.raises(ConnectionError):  # no reply, not a 200
                conn.request("GET", "/api/v1/stats")
                conn.getresponse()
        finally:
            conn.close()

    def test_idle_connections_are_closed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_common, "IDLE_TIMEOUT_S", 0.2)
        server = CoordinatorServer(
            WorkQueue(tmp_path / "queue", lease_ttl=60), port=0, quiet=True
        )
        server.serve_in_thread()
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/api/v1/stats")
            conn.getresponse().read()
            conn.sock.settimeout(5)
            start = time.monotonic()
            assert conn.sock.recv(1) == b""  # end of file: the server closed it
            assert 0.05 < time.monotonic() - start < 3
        finally:
            conn.close()
            server.stop()


class TestListenBacklog:
    def test_a_connect_burst_fits_the_accept_queue(self):
        """Connects the serve loop has not accepted yet wait in the listen
        backlog.  A full backlog drops each further SYN, and its client
        stalls about a second for the retransmit."""
        server = JsonApiServer("127.0.0.1", 0, JsonApiHandler, {}, quiet=True)
        clients = []
        stalled = 0
        try:
            for _ in range(32):
                try:
                    clients.append(
                        socket.create_connection(server.server_address, timeout=0.5)
                    )
                except TimeoutError:
                    stalled += 1
        finally:
            for client in clients:
                client.close()
            server.server_close()
        assert stalled == 0, f"{stalled} of 32 connects timed out"


class TestReconnect:
    """A kept connection the coordinator closed is replaced on the next
    request, without spending a retry (every client here has none)."""

    def test_after_an_error_reply(self, coordinator, monkeypatch):
        accepted = count_connections(monkeypatch, coordinator)
        client = RemoteWorkQueue(coordinator.url, retries=0)
        client.stats()
        with pytest.raises(TransportError) as excinfo:
            client._call("teleport", {})  # 404, sent with Connection: close
        assert excinfo.value.status == 404
        client.stats()
        client.stats()
        assert len(accepted) == 2
        assert client.round_trips == 4

    def test_after_a_restart_on_the_same_port(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "queue", lease_ttl=60)
        first = CoordinatorServer(queue, port=0, quiet=True)
        first.serve_in_thread()
        port = first.server_address[1]
        client = RemoteWorkQueue(first.url, retries=0)
        assert client.stats()["lease_ttl"] == 60
        first.stop()
        second = CoordinatorServer(
            WorkQueue(tmp_path / "queue", lease_ttl=90), port=port, quiet=True
        )
        accepted = count_connections(monkeypatch, second)
        second.serve_in_thread()
        try:
            assert client.stats()["lease_ttl"] == 90
            assert len(accepted) == 1
            assert client.round_trips == 2
        finally:
            second.stop()

    def test_after_the_idle_close(self, tmp_path, monkeypatch):
        monkeypatch.setattr(http_common, "IDLE_TIMEOUT_S", 0.2)
        server = CoordinatorServer(
            WorkQueue(tmp_path / "queue", lease_ttl=60), port=0, quiet=True
        )
        accepted = count_connections(monkeypatch, server)
        server.serve_in_thread()
        try:
            client = RemoteWorkQueue(server.url, retries=0)
            client.stats()
            client.stats()
            assert len(accepted) == 1  # kept alive
            time.sleep(0.6)
            client.stats()
            assert len(accepted) == 2
            assert client.round_trips == 3
        finally:
            server.stop()

    def test_resends_only_when_no_reply_byte_was_read(self):
        """Scripted per request: a full reply; a close before any reply
        byte (resent once, on a new connection); a few status-line bytes
        and a close (raised, not resent)."""
        listener = socket.create_server(("127.0.0.1", 0))
        request_lines = []

        def serve(script):
            while script:
                conn, _ = listener.accept()
                with conn, conn.makefile("rb") as reader:
                    while script:
                        line = reader.readline()
                        if not line:
                            break
                        while reader.readline() not in (b"\r\n", b""):
                            pass
                        request_lines.append(line.split()[1].decode())
                        action = script.pop(0)
                        if action != "ok":
                            if action == "partial":
                                conn.sendall(b"HTT")
                            break
                        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

        thread = threading.Thread(
            target=serve, args=(["ok", "drop", "ok", "partial"],), daemon=True
        )
        thread.start()
        client = KeepAliveClient(f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=5)
        try:
            assert client.request("GET", "/a").json() == {}
            assert client.request("GET", "/b").json() == {}
            with pytest.raises(http.client.BadStatusLine):
                client.request("GET", "/c")
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            client.close()
            listener.close()
        assert request_lines == ["/a", "/b", "/b", "/c"]


class TestHeartbeatResilience:
    def test_heartbeat_survives_a_coordinator_outage(self, tmp_path, monkeypatch):
        """A beat that fails (coordinator briefly down) must not kill
        the heartbeat thread: once the coordinator is back, renewals
        resume and the lease stays fresh.  The beats must fail during
        the outage: a stopped server's kept connection answers nothing."""
        queue = WorkQueue(tmp_path / "queue", lease_ttl=0.4)
        server = CoordinatorServer(queue, port=0, quiet=True)
        server.serve_in_thread()
        port = server.server_address[1]
        client = RemoteWorkQueue(
            server.url, retries=0, backoff=0.01, timeout=1.0
        )
        client.submit_many([sample_payload()])
        task = client.claim("steady")
        assert client.lease_ttl == 0.4  # cached; beats every 0.1s
        lease_file = queue.active_dir / f"{task.task_id}.{task.lease}.json"
        beats = []  # True per renewed lease, False per failed beat
        extend = client.extend

        def recording_extend(task):
            try:
                extend(task)
            except TransportError:
                beats.append(False)
                raise
            beats.append(True)

        monkeypatch.setattr(client, "extend", recording_extend)

        with client.heartbeat(task):
            time.sleep(0.25)
            assert True in beats  # the heartbeat is live before the outage
            server.stop()  # outage: the next beats raise TransportError
            outage_started = len(beats)
            time.sleep(0.3)
            during_outage = beats[outage_started:]
            replacement = CoordinatorServer(queue, port=port, quiet=True)
            replacement.serve_in_thread()
            try:
                before = lease_file.stat().st_mtime
                resumed_from = len(beats)
                time.sleep(0.3)  # >= 2 beat intervals against the new server
                assert lease_file.stat().st_mtime > before  # beats resumed
                assert True in beats[resumed_from:]
            finally:
                replacement.stop()
        assert during_outage and not any(during_outage)


class TestSharedClient:
    """One client driven by a worker loop and its heartbeat thread at once:
    each thread has its own connection, replies never cross, and the
    wire counters lose no update."""

    def test_worker_loop_and_heartbeat_share_one_client(self, tmp_path, monkeypatch):
        queue = WorkQueue(tmp_path / "queue", lease_ttl=0.2)  # beats every 0.05 s
        server = CoordinatorServer(queue, port=0, quiet=True)
        server.serve_in_thread()
        client = RemoteWorkQueue(server.url, retries=0)
        calls = []  # (thread, id sent, id echoed, request bytes sent, reply wire bytes)
        once = client._once

        def sent_bytes(body, method):
            if method != "POST":
                return 0
            data = json.dumps(body or {}).encode("utf-8")
            if len(data) >= GZIP_MIN_BYTES:
                data = gzip.compress(data, compresslevel=5)
            return len(data)

        def recording_once(endpoint, body, method, request_id):
            reply = once(endpoint, body, method, request_id)
            calls.append((
                threading.get_ident(), request_id, reply.request_id,
                sent_bytes(body, method), len(reply.raw),
            ))
            return reply

        monkeypatch.setattr(client, "_once", recording_once)
        client.submit_many([sample_payload()])
        task = client.claim("shared")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with client.heartbeat(task):
                for batch in range(40):
                    client.submit_many(
                        [sample_payload(1000 + 20 * batch + i) for i in range(20)]
                    )
                    client.poll_many([task.task_id])
        finally:
            sys.setswitchinterval(interval)
            server.stop()

        threads = {thread for thread, *_ in calls}
        assert len(threads) == 2  # the worker loop and its heartbeat
        assert all(sent == echoed for _, sent, echoed, _, _ in calls)
        assert len({sent for _, sent, _, _, _ in calls}) >= 80
        assert client.round_trips == len(calls)
        assert client.bytes_sent == sum(sent for *_, sent, _ in calls)
        assert client.bytes_received == sum(wire for *_, wire in calls)

    def test_a_heartbeat_never_waits_behind_a_slow_submit(self, coordinator, monkeypatch):
        submit_many = coordinator.queue.submit_many
        entered = threading.Event()

        def slow_submit_many(payloads):
            entered.set()
            time.sleep(1.0)
            return submit_many(payloads)

        monkeypatch.setattr(coordinator.queue, "submit_many", slow_submit_many)
        client = RemoteWorkQueue(coordinator.url, retries=0)
        client.stats()  # the main thread's connection is open and kept
        submitter = threading.Thread(
            target=client.submit_many, args=([sample_payload()],)
        )
        submitter.start()
        try:
            assert entered.wait(5)
            start = time.monotonic()
            assert client.stats()["pending"] == 0
            assert time.monotonic() - start < 0.5
        finally:
            submitter.join(timeout=5)
        assert not submitter.is_alive()
        assert coordinator.queue.pending_count() == 1


class TestConcurrentClaims:
    """The atomicity claim, exercised concurrently through the server."""

    def test_no_task_double_claimed_or_lost(self, coordinator):
        tasks = 24
        expected = {
            WorkQueue(coordinator.queue.root).submit(sample_payload(i))
            for i in range(tasks)
        }
        assert len(expected) == tasks
        claimed = []
        claimed_lock = threading.Lock()
        errors = []

        def hammer(worker_id: int):
            client = RemoteWorkQueue(coordinator.url, retries=2, backoff=0.05)
            try:
                while True:
                    task = client.claim(f"hammer{worker_id}")
                    if task is None:
                        return
                    with claimed_lock:
                        claimed.append(task.task_id)
                    client.results.put(
                        task.task_id, echo_handler(task.payload)
                    )
                    client.complete(task)
            # checks: allow-broad-except worker thread collects errors for the main-thread assert
            except Exception as exc:  # surfaced below; threads mustn't die silently
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # No double claims ...
        assert len(claimed) == len(set(claimed))
        # ... and no lost tasks: every submitted task was claimed once
        # and completed with its result stored.
        assert set(claimed) == expected
        queue = coordinator.queue
        assert queue.pending_count() == 0
        assert queue.active_count() == 0
        for task_id in expected:
            assert queue.results.get(task_id) is not None
