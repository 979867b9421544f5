"""Tests for concurrent serving: the replica pool and the coalescer.

The load-bearing properties:

- A replica is a weight-sharing structural clone: same Parameter
  objects, fresh object graph, so a forward through any replica is
  bitwise the forward through the source model.
- K concurrent requests against an N-replica pool all answer bitwise
  identical to the offline batch path — whichever replica served them,
  and whether or not the coalescer stacked them into shared forwards.
- `PUT /theta` retunes the *whole pool* atomically: one version bump,
  every replica on the new scheme, and a failed retune leaves every
  replica on the old one.
- The serve-tier bugfix sweep: boolean/non-finite thresholds are
  rejected at the door, idle sessions are evicted instead of leaking,
  and `/metrics` reports reuse counters consistent with the
  scheme_version alongside them.
- Failures stay local: a leader whose batch failed hands the error to
  that batch's jobs and still serves its own request.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.engine import (
    MemoizationScheme,
    apply_memoization,
    iter_recurrent_layers,
    memoized,
    restore,
)
from repro.core.stats import ReuseStats, ThreadSafeReuseStats
from repro.models.zoo import load_benchmark
from repro.nn.module import Parameter, clone_with_shared_parameters
from repro.serve import (
    InferenceServer,
    ServeClient,
    ServeError,
    ServeState,
    parse_layer_thetas,
    run_loadgen,
)
from repro.serve.loadgen import expected_outputs
from repro.serve.state import SessionError, _InferJob

THETA = 0.05


@pytest.fixture
def imdb():
    return load_benchmark("imdb", scale="tiny")


@pytest.fixture
def speech():
    return load_benchmark("deepspeech2", scale="tiny")


def pooled_state(benchmark, scheme=None, **kwargs):
    return ServeState(
        benchmark, scheme or MemoizationScheme(theta=THETA), **kwargs
    )


class TestCloneWithSharedParameters:
    def test_parameters_are_shared_modules_are_not(self, imdb):
        model = imdb.model
        clone = clone_with_shared_parameters(model)
        assert clone is not model
        source_params = dict(model.named_parameters())
        clone_params = dict(clone.named_parameters())
        assert list(clone_params) == list(source_params)
        for name, param in source_params.items():
            assert clone_params[name] is param
        source_children = dict(model._children)
        for name, child in clone._children.items():
            assert child is not source_children[name]

    def test_clone_forward_is_bitwise_source_forward(self, imdb):
        rows = imdb.dataset.tokens[np.asarray(imdb.test_idx[:4])]
        clone = clone_with_shared_parameters(imdb.model)
        np.testing.assert_array_equal(
            clone.predict(rows), imdb.model.predict(rows)
        )

    def test_wrapping_the_clone_leaves_the_source_unwrapped(self, imdb):
        clone = clone_with_shared_parameters(imdb.model)
        source_layers = dict(
            (name, layer) for layer, name in iter_recurrent_layers(imdb.model)
        )
        replacements = apply_memoization(
            clone, MemoizationScheme(theta=THETA), ReuseStats()
        )
        try:
            for layer, name in iter_recurrent_layers(imdb.model):
                assert source_layers[name] is layer  # source untouched
            # The clone's recurrent layers are now wrappers (deregistered
            # from its child walk); the source still walks all of them.
            assert list(iter_recurrent_layers(clone)) == []
            assert len(source_layers) > 0
        finally:
            restore(replacements)

    def test_aliased_submodules_stay_aliased(self):
        from repro.nn.module import Module

        class Leaf(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(3))

        class Tree(Module):
            def __init__(self):
                super().__init__()
                self.a = Leaf()
                self.b = self.a

        tree = Tree()
        clone = clone_with_shared_parameters(tree)
        assert clone.a is clone.b
        assert clone.a is not tree.a
        assert clone.a.w is tree.a.w


class TestRestoreOrdering:
    def test_round_trip_preserves_child_registry_order(self, speech):
        stack = speech.model.stack
        before = list(stack._children)
        replacements = apply_memoization(
            speech.model, MemoizationScheme(theta=THETA), ReuseStats()
        )
        restore(replacements)
        assert list(stack._children) == before
        assert [name for _, name in iter_recurrent_layers(speech.model)] == [
            name
            for name in (f"stack.{child}" for child in before)
        ]

    def test_round_trip_preserves_named_parameter_order(self, imdb):
        before = [name for name, _ in imdb.model.named_parameters()]
        with memoized(imdb.model, MemoizationScheme(theta=THETA), ReuseStats()):
            pass
        assert [name for name, _ in imdb.model.named_parameters()] == before


class TestReplicaPool:
    def test_pool_replicas_answer_bitwise_like_offline_path(self, imdb):
        indices = [int(i) for i in imdb.test_idx[:8]]
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(imdb, scheme, indices)
        state = pooled_state(imdb, scheme, replicas=3, coalesce_ms=0.0)
        try:
            outputs = []
            errors = []

            def one(index, position):
                try:
                    reply = state.infer([imdb.dataset.tokens[index].tolist()])
                    outputs[position] = reply["outputs"][0]
                # checks: allow-broad-except hammer thread collects errors for the main-thread assert
                except Exception as exc:  # pragma: no cover - test plumbing
                    errors.append(exc)

            outputs = [None] * len(indices)
            threads = [
                threading.Thread(target=one, args=(index, position))
                for position, index in enumerate(indices)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert outputs == expected
            metrics = state.metrics()
            assert metrics["pool"]["replicas"] == 3
            assert metrics["pool"]["available"] == 3
            assert metrics["inference"]["requests"] == len(indices)
            # coalesce_ms=0 means one request per forward, always.
            assert metrics["coalesce"]["batches"] == len(indices)
            assert metrics["coalesce"]["coalesced_batches"] == 0
        finally:
            state.unwrap()

    def test_coalescer_stacks_waiting_jobs_into_one_forward(self, imdb):
        indices = [int(i) for i in imdb.test_idx[:4]]
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(imdb, scheme, indices)
        state = pooled_state(imdb, scheme, replicas=1, coalesce_ms=1.0)
        try:
            # Hold the only replica hostage: every request must park its
            # job on the pending queue and spin on the empty pool.
            replica = state._pool.get()
            outputs = [None] * len(indices)

            def one(index, position):
                reply = state.infer([imdb.dataset.tokens[index].tolist()])
                outputs[position] = reply["outputs"][0]

            threads = [
                threading.Thread(target=one, args=(index, position))
                for position, index in enumerate(indices)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with state._pending_cond:
                    if len(state._pending) == len(indices):
                        break
                time.sleep(0.005)
            with state._pending_cond:
                assert len(state._pending) == len(indices)
            # Releasing the replica lets exactly one leader claim it and
            # serve the whole backlog as one stacked forward.
            state._pool.put(replica)
            for thread in threads:
                thread.join()
            assert outputs == expected
            metrics = state.metrics()
            assert metrics["coalesce"]["batches"] == 1
            assert metrics["coalesce"]["coalesced_batches"] == 1
            assert metrics["coalesce"]["max_batch_jobs"] == len(indices)
            assert metrics["coalesce"]["batch_jobs_hist"] == {
                str(len(indices)): 1
            }
        finally:
            state.unwrap()

    def test_ragged_rows_still_serve(self, speech):
        indices = [int(i) for i in speech.test_idx[:2]]
        scheme = MemoizationScheme(theta=THETA)
        state = pooled_state(speech, scheme, replicas=2)
        try:
            short = speech.dataset.features[indices[0]][:3].tolist()
            full = speech.dataset.features[indices[1]].tolist()
            reply = state.infer([short, full])
            assert len(reply["outputs"]) == 2
        finally:
            state.unwrap()


class TestLeaderErrors:
    def test_leader_does_not_raise_another_jobs_error(self, imdb):
        """Request B leads a forward that holds only the poisoned job A:
        A gets the error (and an ``infer_error`` event), B still gets
        its own answer, and nothing is left pending."""
        index = int(imdb.test_idx[0])
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(imdb, scheme, [index])
        state = pooled_state(imdb, scheme, replicas=1, coalesce_ms=0.0)
        try:
            # Hold the only replica while A (an out-of-vocabulary token:
            # its forward raises) is queued ahead of B.
            replica = state._pool.get()
            poisoned = _InferJob([np.array([10**6])], request_id="poisoned-a")
            with state._pending_cond:
                state._pending.append(poisoned)
            reply = {}
            errors = []

            def request_b():
                try:
                    reply.update(state.infer(
                        [imdb.dataset.tokens[index].tolist()],
                        request_id="healthy-b",
                    ))
                # checks: allow-broad-except request thread collects errors for the main-thread assert
                except Exception as exc:
                    errors.append(exc)

            thread = threading.Thread(target=request_b, daemon=True)
            thread.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with state._pending_cond:
                    if len(state._pending) == 2:
                        break
                time.sleep(0.005)
            # B's thread takes the replica back and leads A's forward.
            with state._pending_cond:
                assert state._pending[0] is poisoned
                assert len(state._pending) == 2
                state._pool.put(replica)
                state._pending_cond.notify_all()
            thread.join(timeout=60)
            assert not thread.is_alive()
            assert not errors
            assert reply["outputs"] == expected
            assert isinstance(poisoned.error, IndexError)
            with state._pending_cond:
                assert state._pending == []
            failures = state.events.snapshot(kind="infer_error")["events"]
            assert [event["request_id"] for event in failures] == ["poisoned-a"]
        finally:
            state.unwrap()


class TestPoolRetune:
    def test_retune_swaps_every_replica_and_bumps_version_once(self, imdb):
        state = pooled_state(imdb, replicas=3)
        try:
            before = state.scheme_version
            info = state.retune({"theta": 0.4})
            assert info["scheme_version"] == before + 1
            for replica in state._replicas:
                assert replica.scheme_version == before + 1
                assert replica.scheme.theta == 0.4
            assert state._pool.qsize() == 3
        finally:
            state.unwrap()

    def test_failed_retune_leaves_every_replica_on_old_scheme(self, imdb):
        state = pooled_state(imdb, replicas=3)
        try:
            before_version = state.scheme_version
            before_scheme = state.scheme
            with pytest.raises(ValueError):
                state.retune({"predictor": "nonsense"})
            assert state.scheme_version == before_version
            for replica in state._replicas:
                assert replica.scheme is before_scheme
                assert replica.scheme_version == before_version
            assert state._pool.qsize() == 3
            # And the pool still serves.
            row = imdb.dataset.tokens[int(imdb.test_idx[0])].tolist()
            assert state.infer([row])["scheme_version"] == before_version
        finally:
            state.unwrap()

    def test_responses_attribute_to_a_served_version(self, imdb):
        """Under a retune racing live traffic, every reply's outputs
        match the offline path *at the version the reply claims*."""
        indices = [int(i) for i in imdb.test_idx[:6]]
        schemes = {
            1: MemoizationScheme(theta=THETA),
            2: MemoizationScheme(theta=0.5),
        }
        expected = {
            version: dict(zip(indices, expected_outputs(imdb, scheme, indices)))
            for version, scheme in schemes.items()
        }
        state = pooled_state(imdb, schemes[1], replicas=2, coalesce_ms=0.0)
        try:
            results = []
            errors = []
            lock = threading.Lock()

            def traffic():
                for index in indices:
                    try:
                        reply = state.infer(
                            [imdb.dataset.tokens[index].tolist()]
                        )
                    # checks: allow-broad-except hammer thread collects errors for the main-thread assert
                    except Exception as exc:  # pragma: no cover
                        with lock:
                            errors.append(exc)
                        return
                    with lock:
                        results.append(
                            (index, reply["scheme_version"],
                             reply["outputs"][0])
                        )

            threads = [threading.Thread(target=traffic) for _ in range(4)]
            for thread in threads:
                thread.start()
            state.retune({"theta": 0.5})
            for thread in threads:
                thread.join()
            assert not errors
            versions_seen = {version for _, version, _ in results}
            assert versions_seen <= {1, 2}
            for index, version, output in results:
                assert output == expected[version][index]
        finally:
            state.unwrap()


class TestHammer:
    """K threads of mixed /infer + session traffic across a live PUT
    /theta against a replica pool, every row diffed bitwise against the
    offline reference keyed by the scheme_version that served it."""

    def test_mixed_traffic_stays_bitwise_across_live_retune(self, speech):
        indices = [int(i) for i in speech.test_idx[:4]]
        schemes = {
            1: MemoizationScheme(theta=THETA),
            2: MemoizationScheme(theta=0.3),
        }
        expected = {
            version: dict(
                zip(indices, expected_outputs(speech, scheme, indices))
            )
            for version, scheme in schemes.items()
        }
        state = pooled_state(
            speech, schemes[1], replicas=2, coalesce_ms=1.0
        )
        server = InferenceServer(state, quiet=True)
        server.serve_in_thread()
        try:
            url = server.url
            mismatches = []
            errors = []
            lock = threading.Lock()

            def infer_traffic(rounds):
                client = ServeClient(url)
                for round_index in range(rounds):
                    index = indices[round_index % len(indices)]
                    row = speech.dataset.features[index].tolist()
                    try:
                        reply = client.post(
                            "/api/v1/infer", {"input": row}
                        )
                    except ServeError as exc:
                        with lock:
                            errors.append(str(exc))
                        return
                    output = reply["outputs"][0]
                    version = reply["scheme_version"]
                    if output != expected[version][index]:
                        with lock:
                            mismatches.append((index, version))

            def session_traffic(rounds):
                client = ServeClient(url)
                for round_index in range(rounds):
                    index = indices[round_index % len(indices)]
                    frames = speech.dataset.features[index]
                    try:
                        opened = client.post("/api/v1/session/open", {})
                        sid = opened["session"]
                        split = frames.shape[0] // 2
                        decoded = []
                        for chunk in (frames[:split], frames[split:]):
                            reply = client.post(
                                "/api/v1/infer",
                                {"session": sid, "input": chunk.tolist()},
                            )
                            decoded.extend(reply["outputs"][0])
                        client.post("/api/v1/session/close", {"session": sid})
                    except ServeError as exc:
                        with lock:
                            errors.append(str(exc))
                        return
                    version = opened["scheme_version"]
                    # A session's chunked decode, collapse aside, must
                    # match the one-shot transcript pre-collapse length.
                    if len(decoded) != frames.shape[0]:
                        with lock:
                            mismatches.append(("session", index, version))

            threads = [
                threading.Thread(target=infer_traffic, args=(6,))
                for _ in range(3)
            ] + [threading.Thread(target=session_traffic, args=(3,))]
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            ServeClient(url).put("/api/v1/theta", {"theta": 0.3})
            for thread in threads:
                thread.join()
            assert not errors
            assert not mismatches
            metrics = ServeClient(url).get("/api/v1/metrics")
            assert metrics["scheme"]["scheme_version"] == 2
            assert metrics["pool"]["replicas"] == 2
        finally:
            server.stop()
            state.unwrap()


class TestRetuneValidation:
    """Bugfix: booleans are not thresholds, and neither is NaN."""

    def test_boolean_theta_is_rejected(self, imdb):
        state = pooled_state(imdb)
        try:
            with pytest.raises(ValueError, match="number"):
                state.retune({"theta": True})
            assert state.scheme.theta == THETA
        finally:
            state.unwrap()

    def test_non_finite_theta_is_rejected(self, imdb):
        state = pooled_state(imdb)
        try:
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ValueError, match="finite"):
                    state.retune({"theta": bad})
            assert state.scheme.theta == THETA
        finally:
            state.unwrap()

    def test_boolean_and_non_finite_layer_thetas_are_rejected(self, imdb):
        state = pooled_state(imdb)
        layer = state.layer_names[0]
        try:
            with pytest.raises(ValueError, match="number"):
                state.retune({"layer_thetas": {layer: False}})
            with pytest.raises(ValueError, match="finite"):
                state.retune({"layer_thetas": {layer: float("nan")}})
            assert state.scheme.layer_thetas is None
        finally:
            state.unwrap()

    def test_non_finite_values_rejected_over_http(self, imdb):
        """Python's json.loads accepts NaN/Infinity tokens, so the hole
        is remotely reachable — the server must 400 it."""
        state = pooled_state(imdb)
        server = InferenceServer(state, quiet=True)
        server.serve_in_thread()
        try:
            client = ServeClient(server.url)
            for bad in (float("nan"), float("inf"), True):
                with pytest.raises(ServeError) as err:
                    client.put("/api/v1/theta", {"theta": bad})
                assert err.value.status == 400
            assert client.get("/api/v1/theta")["theta"] == THETA
        finally:
            server.stop()
            state.unwrap()

    def test_parse_layer_thetas_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            parse_layer_thetas(["stack.layer0=nan"])
        with pytest.raises(ValueError, match="finite"):
            parse_layer_thetas(["stack.layer0=inf"])

    def test_scheme_constructor_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MemoizationScheme(theta=float("nan"))
        with pytest.raises(ValueError):
            MemoizationScheme(theta=float("inf"))
        with pytest.raises(ValueError):
            MemoizationScheme(
                theta=0.1, layer_thetas={"stack.layer0": float("nan")}
            )


class TestSessionTTL:
    """Bugfix: abandoned sessions are evicted, not leaked forever."""

    def test_idle_sessions_are_evicted_on_open(self, speech):
        state = pooled_state(speech, session_ttl=0.05)
        try:
            opened = state.open_session()
            state.sessions[opened["session"]].last_used -= 1.0
            reopened = state.open_session()
            assert opened["session"] not in state.sessions
            assert reopened["session"] in state.sessions
            assert state.sessions_evicted == 1
        finally:
            state.unwrap()

    def test_eviction_unblocks_a_full_session_table(self, speech):
        state = pooled_state(speech, max_sessions=2, session_ttl=0.05)
        try:
            stale = [state.open_session()["session"] for _ in range(2)]
            for sid in stale:
                state.sessions[sid].last_used -= 1.0
            # Before the fix this raised "too many open sessions" forever.
            fresh = state.open_session()
            assert fresh["session"] in state.sessions
            assert state.sessions_evicted == 2
        finally:
            state.unwrap()

    def test_closing_an_evicted_session_is_404(self, speech):
        state = pooled_state(speech, session_ttl=0.05)
        try:
            opened = state.open_session()
            state.sessions[opened["session"]].last_used -= 1.0
            with pytest.raises(SessionError):
                state.close_session(opened["session"])
        finally:
            state.unwrap()

    def test_feed_refreshes_the_stamp(self, speech):
        state = pooled_state(speech, session_ttl=60.0)
        try:
            opened = state.open_session()
            sid = opened["session"]
            state.sessions[sid].last_used -= 30.0
            chunk = speech.dataset.features[int(speech.test_idx[0])][:2]
            state.session_feed(sid, chunk.tolist())
            assert time.monotonic() - state.sessions[sid].last_used < 5.0
        finally:
            state.unwrap()

    def test_non_positive_ttl_disables_eviction(self, speech):
        state = pooled_state(speech, session_ttl=0.0)
        try:
            opened = state.open_session()
            state.sessions[opened["session"]].last_used -= 10_000.0
            state.open_session()
            assert opened["session"] in state.sessions
            assert state.sessions_evicted == 0
        finally:
            state.unwrap()


class TestConcurrentSessions:
    """Bugfix: feeds into different sessions run concurrently over the one
    set of layers, and no timestep may see another session's products."""

    def test_concurrent_sessions_close_with_their_solo_transcripts(self, speech):
        state = pooled_state(speech)
        utterances = [speech.dataset.features[int(i)] for i in speech.test_idx[:4]]

        def transcribe(frames):
            sid = state.open_session()["session"]
            for lo in range(0, frames.shape[0], 4):
                state.session_feed(sid, frames[lo : lo + 4].tolist())
            return state.close_session(sid)["transcript"]

        interval = sys.getswitchinterval()
        try:
            solo = [transcribe(frames) for frames in utterances]
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                transcripts = [None] * len(utterances)

                def worker(index):
                    transcripts[index] = transcribe(utterances[index])

                threads = [
                    threading.Thread(target=worker, args=(index,))
                    for index in range(len(utterances))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert transcripts == solo
        finally:
            sys.setswitchinterval(interval)
            state.unwrap()


class TestMetricsConsistency:
    """Bugfix: /metrics takes one view under the state lock."""

    def test_snapshots_are_read_under_the_state_lock(self, imdb):
        state = pooled_state(imdb)

        held_during_snapshot = []

        class Probe(ThreadSafeReuseStats):
            def snapshot(inner):  # noqa: N805 - probe shim
                held_during_snapshot.append(state.lock._is_owned())
                return super().snapshot()

        probe = Probe()
        state.stats = probe
        for replica in state._replicas:
            replica.stats = probe
        try:
            state.metrics()
            assert held_during_snapshot
            assert all(held_during_snapshot)
        finally:
            state.unwrap()

    def test_metrics_aggregate_reuse_across_replicas(self, imdb):
        indices = [int(i) for i in imdb.test_idx[:4]]
        state = pooled_state(imdb, replicas=2, coalesce_ms=0.0)
        try:
            for index in indices:
                state.infer([imdb.dataset.tokens[index].tolist()])
            metrics = state.metrics()
            per_replica = metrics["pool"]["per_replica"]
            assert len(per_replica) == 2
            total_evals = metrics["reuse"]["total_evaluations"]
            assert total_evals > 0
            assert total_evals == sum(
                replica.stats.total_evaluations for replica in state._replicas
            ) + state.stats.total_evaluations
        finally:
            state.unwrap()


class TestLoadgenRetune:
    def test_loadgen_mid_run_retune_verifies_per_version(self, imdb):
        state = pooled_state(imdb, replicas=2, coalesce_ms=1.0)
        server = InferenceServer(state, quiet=True)
        server.serve_in_thread()
        try:
            summary = run_loadgen(
                server.url,
                "imdb",
                requests=10,
                concurrency=4,
                batch=2,
                verify=True,
                theta=THETA,
                retune_theta=0.5,
            )
            assert summary["errors"] == []
            assert summary["completed"] == 10
            assert summary["verify"]["mismatches"] == 0
            assert summary["verify"]["checked"] == 20
            # Both sides of the retune must have seen traffic.
            assert len(summary["verify"]["versions"]) == 2
            assert summary["pool"]["replicas"] == 2
        finally:
            server.stop()
            state.unwrap()


class TestStateValidation:
    def test_bad_pool_parameters_are_rejected(self, imdb):
        with pytest.raises(ValueError, match="replicas"):
            ServeState(imdb, MemoizationScheme(theta=THETA), replicas=0)
        with pytest.raises(ValueError, match="coalesce"):
            ServeState(
                imdb, MemoizationScheme(theta=THETA), coalesce_ms=-1.0
            )
