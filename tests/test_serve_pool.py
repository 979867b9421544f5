"""Tests for concurrent serving: the replica pool and the coalescer.

The load-bearing properties:

- A replica is a weight-sharing structural clone: same Parameter
  objects, fresh object graph, so a forward through any replica is
  bitwise the forward through the source model.
- K concurrent requests against an N-replica pool all answer bitwise
  identical to the offline batch path — whichever replica served them,
  and whether or not the coalescer stacked them into shared forwards.
- The coalescer has one rule: a leader stacks every pending job of the
  oldest job's row shape, in FIFO order and within the row cap, runs
  it at once, and never waits for jobs that have not arrived.
- `PUT /theta` retunes the *whole pool* atomically: one version bump,
  every replica on the new scheme, and a failed retune leaves every
  replica on the old one.  The new clones are built before the pool is
  drained, so requests are served while a retune builds, and a failed
  build has nothing to undo.  A session open builds its clone outside
  the state lock too, and the session cap holds across overlapping
  opens.
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

from repro.core import engine as engine_module
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
from repro.serve import state as serve_state
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


def offline_outputs(benchmark, scheme, rows):
    """The offline memoized batch path's outputs for equal-shape ``rows``."""
    with memoized(benchmark.model, scheme, ReuseStats()):
        return benchmark.outputs(np.asarray(rows))


def serve_parked(state, requests):
    """Serve ``requests`` (each a list of JSON rows) through a
    one-replica ``state`` whose replica is held until every request's
    job is pending, parked in list order.  Returns each request's
    outputs."""
    # Hold the only replica hostage: every request must park its job on
    # the pending queue and wait on the empty pool.
    with state._pending_cond:
        replica = state._idle.pop()
    outputs = [None] * len(requests)

    def one(position):
        outputs[position] = state.infer(requests[position])["outputs"]

    threads = []
    for position in range(len(requests)):
        threads.append(threading.Thread(target=one, args=(position,), daemon=True))
        threads[-1].start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with state._pending_cond:
                if len(state._pending) == position + 1:
                    break
            time.sleep(0.005)
        with state._pending_cond:
            assert len(state._pending) == position + 1
    # Releasing the replica lets one leader claim it and serve what is
    # pending.
    with state._pending_cond:
        state._idle.append(replica)
        state._pending_cond.notify_all()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return outputs


def patch_clone_builds(monkeypatch, build):
    """Route every memoized clone build through ``build``, which is
    handed the real ``apply_memoization`` and its arguments."""
    real = engine_module.apply_memoization

    def patched(model, scheme, stats, rows=None):
        return build(real, model, scheme, stats, rows)

    monkeypatch.setattr(engine_module, "apply_memoization", patched)
    monkeypatch.setattr(serve_state, "apply_memoization", patched)


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
        state = pooled_state(imdb, scheme, replicas=3)
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

    def test_coalescer_stacks_waiting_jobs_into_one_forward(self, imdb):
        indices = [int(i) for i in imdb.test_idx[:4]]
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(imdb, scheme, indices)
        state = pooled_state(imdb, scheme, replicas=1)
        outputs = serve_parked(
            state, [[imdb.dataset.tokens[index].tolist()] for index in indices]
        )
        assert [reply[0] for reply in outputs] == expected
        metrics = state.metrics()
        assert metrics["coalesce"]["batches"] == 1
        assert metrics["coalesce"]["coalesced_batches"] == 1
        assert metrics["coalesce"]["max_batch_jobs"] == len(indices)
        assert metrics["coalesce"]["batch_jobs_hist"] == {
            str(len(indices)): 1
        }

    def test_a_leader_never_waits_for_jobs_that_have_not_arrived(self, imdb):
        indices = [int(i) for i in imdb.test_idx[:2]]
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(imdb, scheme, indices)
        state = pooled_state(imdb, scheme, replicas=1)
        timeouts = []
        wait = state._pending_cond.wait

        def recording_wait(timeout=None):
            timeouts.append(timeout)
            return wait(timeout)

        state._pending_cond.wait = recording_wait
        outputs = serve_parked(
            state, [[imdb.dataset.tokens[index].tolist()] for index in indices]
        )
        assert [reply[0] for reply in outputs] == expected
        assert state.metrics()["coalesce"]["batch_jobs_hist"] == {"2": 1}
        # The parked requests waited for the replica; no leader waited
        # on a clock for more jobs.
        assert timeouts
        assert all(timeout is None for timeout in timeouts)

    def test_jobs_of_another_shape_wait_for_the_next_forward(self, imdb):
        scheme = MemoizationScheme(theta=THETA)
        rows = imdb.dataset.tokens[np.asarray(imdb.test_idx[:3])]
        requests = [[rows[0].tolist()], [rows[1][:10].tolist()], [rows[2].tolist()]]
        expected = [offline_outputs(imdb, scheme, request) for request in requests]
        state = pooled_state(imdb, scheme, replicas=1)
        assert serve_parked(state, requests) == expected
        # The two 20-token jobs share the first forward; the 10-token
        # job between them runs in the second.
        assert state.metrics()["coalesce"]["batch_jobs_hist"] == {"1": 1, "2": 1}

    def test_a_job_that_would_pass_the_row_cap_waits(self, imdb):
        scheme = MemoizationScheme(theta=THETA)
        tokens = imdb.dataset.tokens
        requests = [
            [tokens[i % len(tokens)].tolist() for i in range(200)],
            [tokens[i % len(tokens)].tolist() for i in range(200, 300)],
        ]
        expected = [offline_outputs(imdb, scheme, request) for request in requests]
        state = pooled_state(imdb, scheme, replicas=1)
        assert serve_parked(state, requests) == expected
        coalesce = state.metrics()["coalesce"]
        assert coalesce["batches"] == 2
        assert coalesce["max_batch_rows"] == 200

    def test_a_ragged_job_rides_alone(self, imdb):
        scheme = MemoizationScheme(theta=THETA)
        rows = imdb.dataset.tokens[np.asarray(imdb.test_idx[:3])]
        ragged = [rows[0].tolist(), rows[1][:10].tolist()]
        requests = [ragged, [rows[2].tolist()]]
        expected = [
            offline_outputs(imdb, scheme, ragged[:1])
            + offline_outputs(imdb, scheme, ragged[1:]),
            offline_outputs(imdb, scheme, requests[1]),
        ]
        state = pooled_state(imdb, scheme, replicas=1)
        assert serve_parked(state, requests) == expected
        assert state.metrics()["coalesce"]["batches"] == 2

    def test_ragged_rows_still_serve(self, speech):
        indices = [int(i) for i in speech.test_idx[:2]]
        scheme = MemoizationScheme(theta=THETA)
        state = pooled_state(speech, scheme, replicas=2)
        short = speech.dataset.features[indices[0]][:3].tolist()
        full = speech.dataset.features[indices[1]].tolist()
        reply = state.infer([short, full])
        assert len(reply["outputs"]) == 2


class TestLeaderErrors:
    def test_leader_does_not_raise_another_jobs_error(self, imdb):
        """Request B leads a forward that holds only the poisoned job A:
        A gets the error (and an ``infer_error`` event), B still gets
        its own answer, and nothing is left pending."""
        index = int(imdb.test_idx[0])
        scheme = MemoizationScheme(theta=THETA)
        expected = expected_outputs(imdb, scheme, [index])
        state = pooled_state(imdb, scheme, replicas=1)
        # Hold the only replica while A (an out-of-vocabulary token:
        # its forward raises) is queued ahead of B.
        with state._pending_cond:
            replica = state._idle.pop()
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
            state._idle.append(replica)
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


class TestPoolRetune:
    def test_retune_swaps_every_replica_and_bumps_version_once(self, imdb):
        state = pooled_state(imdb, replicas=3)
        before = state.scheme_version
        info = state.retune({"theta": 0.4})
        assert info["scheme_version"] == before + 1
        for replica in state._replicas:
            assert replica.scheme_version == before + 1
            assert replica.scheme.theta == 0.4
        with state._pending_cond:
            assert len(state._idle) == 3

    def test_failed_retune_leaves_every_replica_on_old_scheme(self, imdb):
        state = pooled_state(imdb, replicas=3)
        before_version = state.scheme_version
        before_scheme = state.scheme
        with pytest.raises(ValueError):
            state.retune({"predictor": "nonsense"})
        assert state.scheme_version == before_version
        for replica in state._replicas:
            assert replica.scheme is before_scheme
            assert replica.scheme_version == before_version
        with state._pending_cond:
            assert len(state._idle) == 3
        # And the pool still serves.
        row = imdb.dataset.tokens[int(imdb.test_idx[0])].tolist()
        assert state.infer([row])["scheme_version"] == before_version

    def test_requests_are_served_while_a_retune_builds(self, imdb, monkeypatch):
        """The retune builds its clones before it drains the pool, so a
        request that arrives mid-build is served under the old scheme."""
        state = pooled_state(imdb, replicas=2)
        building = threading.Event()
        release = threading.Event()

        def build(real, model, scheme, stats, rows):
            if scheme.theta == 0.5:
                building.set()
                release.wait(timeout=60)
            return real(model, scheme, stats, rows)

        patch_clone_builds(monkeypatch, build)
        retune = threading.Thread(target=state.retune, args=({"theta": 0.5},))
        retune.start()
        reply = {}
        row = imdb.dataset.tokens[int(imdb.test_idx[0])].tolist()
        request = threading.Thread(
            target=lambda: reply.update(state.infer([row])), daemon=True
        )
        try:
            assert building.wait(timeout=5)
            request.start()
            request.join(timeout=5)
            assert not request.is_alive()
            assert reply["scheme_version"] == 1
        finally:
            release.set()
            retune.join(timeout=60)
        assert not retune.is_alive()
        assert state.scheme_version == 2

    def test_sessions_and_metrics_are_served_while_a_retune_builds(
        self, speech, monkeypatch
    ):
        """The retune builds its clones without holding the state lock,
        so sessions open and feed, and ``metrics()`` answers, mid-build."""
        state = pooled_state(speech, replicas=2)
        building = threading.Event()
        release = threading.Event()

        def build(real, model, scheme, stats, rows):
            if scheme.theta == 0.5:
                building.set()
                release.wait(timeout=60)
            return real(model, scheme, stats, rows)

        patch_clone_builds(monkeypatch, build)
        retune = threading.Thread(target=state.retune, args=({"theta": 0.5},))
        retune.start()
        replies = {}
        chunk = speech.dataset.features[int(speech.test_idx[0])][:4].tolist()

        def session():
            opened = state.open_session()
            replies["feed"] = state.session_feed(opened["session"], chunk)

        threads = [
            threading.Thread(target=session, daemon=True),
            threading.Thread(
                target=lambda: replies.update(metrics=state.metrics()),
                daemon=True,
            ),
        ]
        try:
            assert building.wait(timeout=5)
            started = time.monotonic()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, 1.0 - (time.monotonic() - started)))
            assert not any(thread.is_alive() for thread in threads)
            assert replies["feed"]["scheme_version"] == 1
            assert replies["metrics"]["scheme"]["scheme_version"] == 1
        finally:
            release.set()
            retune.join(timeout=60)
        assert not retune.is_alive()
        assert state.scheme_version == 2

    def test_a_failed_clone_build_leaves_every_replica_untouched(
        self, imdb, monkeypatch
    ):
        state = pooled_state(imdb, replicas=3)
        before = [
            (replica.model, replica.scheme, replica.scheme_version)
            for replica in state._replicas
        ]
        builds = []

        def build(real, model, scheme, stats, rows):
            builds.append(scheme)
            if len(builds) == 2:
                raise RuntimeError("second clone build fails")
            return real(model, scheme, stats, rows)

        patch_clone_builds(monkeypatch, build)
        with pytest.raises(RuntimeError, match="second clone build fails"):
            state.retune({"theta": 0.5})
        assert len(builds) == 2
        assert state.scheme_version == 1
        for replica, (model, scheme, version) in zip(state._replicas, before):
            assert replica.model is model
            assert replica.scheme is scheme
            assert replica.scheme_version == version
        with state._pending_cond:
            assert len(state._idle) == 3
        row = imdb.dataset.tokens[int(imdb.test_idx[0])].tolist()
        assert state.infer([row])["scheme_version"] == 1

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
        state = pooled_state(imdb, schemes[1], replicas=2)
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

    def test_pool_and_counters_hold_under_contended_retunes(self, imdb):
        """Six request threads on two replicas, a tiny switch interval,
        and four retunes alternating the threshold: no request is lost
        or counted twice, every reply matches the offline path at the
        threshold it reports, and the whole pool ends idle."""
        indices = [int(i) for i in imdb.test_idx[:4]]
        thetas = (THETA, 0.5)
        expected = {
            theta: dict(zip(indices, expected_outputs(
                imdb, MemoizationScheme(theta=theta), indices
            )))
            for theta in thetas
        }
        state = pooled_state(imdb, replicas=2)
        rounds, workers = 8, 6
        results = []
        errors = []
        lock = threading.Lock()

        def traffic(offset):
            for round_index in range(rounds):
                index = indices[(offset + round_index) % len(indices)]
                try:
                    reply = state.infer([imdb.dataset.tokens[index].tolist()])
                # checks: allow-broad-except hammer thread collects errors for the main-thread assert
                except Exception as exc:  # pragma: no cover
                    with lock:
                        errors.append(exc)
                    return
                with lock:
                    results.append((index, reply))

        threads = [
            threading.Thread(target=traffic, args=(offset,), daemon=True)
            for offset in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for retune in range(4):
                state.retune({"theta": thetas[(retune + 1) % 2]})
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == rounds * workers
        for index, reply in results:
            # Odd versions run the first threshold, even ones the second.
            assert reply["theta"] == thetas[(reply["scheme_version"] - 1) % 2]
            assert reply["outputs"][0] == expected[reply["theta"]][index]
        metrics = state.metrics()
        assert metrics["inference"]["requests"] == rounds * workers
        assert metrics["inference"]["rows"] == rounds * workers
        assert sum(
            replica["requests"] for replica in metrics["pool"]["per_replica"]
        ) == rounds * workers
        assert metrics["pool"]["available"] == 2
        assert metrics["scheme"]["scheme_version"] == 5


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
        state = pooled_state(speech, schemes[1], replicas=2)
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


class TestRetuneValidation:
    """Bugfix: booleans are not thresholds, and neither is NaN."""

    def test_boolean_theta_is_rejected(self, imdb):
        state = pooled_state(imdb)
        with pytest.raises(ValueError, match="number"):
            state.retune({"theta": True})
        assert state.scheme.theta == THETA

    def test_non_finite_theta_is_rejected(self, imdb):
        state = pooled_state(imdb)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                state.retune({"theta": bad})
        assert state.scheme.theta == THETA

    def test_boolean_and_non_finite_layer_thetas_are_rejected(self, imdb):
        state = pooled_state(imdb)
        layer = state.layer_names[0]
        with pytest.raises(ValueError, match="number"):
            state.retune({"layer_thetas": {layer: False}})
        with pytest.raises(ValueError, match="finite"):
            state.retune({"layer_thetas": {layer: float("nan")}})
        assert state.scheme.layer_thetas is None

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
        opened = state.open_session()
        state.sessions[opened["session"]].last_used -= 1.0
        reopened = state.open_session()
        assert opened["session"] not in state.sessions
        assert reopened["session"] in state.sessions
        assert state.sessions_evicted == 1

    def test_eviction_unblocks_a_full_session_table(self, speech):
        state = pooled_state(speech, max_sessions=2, session_ttl=0.05)
        stale = [state.open_session()["session"] for _ in range(2)]
        for sid in stale:
            state.sessions[sid].last_used -= 1.0
        # Before the fix this raised "too many open sessions" forever.
        fresh = state.open_session()
        assert fresh["session"] in state.sessions
        assert state.sessions_evicted == 2

    def test_closing_an_evicted_session_is_404(self, speech):
        state = pooled_state(speech, session_ttl=0.05)
        opened = state.open_session()
        state.sessions[opened["session"]].last_used -= 1.0
        with pytest.raises(SessionError):
            state.close_session(opened["session"])

    def test_feed_refreshes_the_stamp(self, speech):
        state = pooled_state(speech, session_ttl=60.0)
        opened = state.open_session()
        sid = opened["session"]
        state.sessions[sid].last_used -= 30.0
        chunk = speech.dataset.features[int(speech.test_idx[0])][:2]
        state.session_feed(sid, chunk.tolist())
        assert time.monotonic() - state.sessions[sid].last_used < 5.0

    def test_non_positive_ttl_disables_eviction(self, speech):
        state = pooled_state(speech, session_ttl=0.0)
        opened = state.open_session()
        state.sessions[opened["session"]].last_used -= 10_000.0
        state.open_session()
        assert opened["session"] in state.sessions
        assert state.sessions_evicted == 0


class TestSessionOpen:
    """A session's clone is built outside the state lock, and the
    session cap holds across opens whose builds overlap."""

    def test_metrics_and_sessions_are_served_while_a_session_builds(
        self, speech, monkeypatch
    ):
        state = pooled_state(speech)
        first = state.open_session()["session"]
        building = threading.Event()
        release = threading.Event()

        def build(real, model, scheme, stats, rows):
            building.set()
            release.wait(timeout=60)
            return real(model, scheme, stats, rows)

        patch_clone_builds(monkeypatch, build)
        opened = {}
        opener = threading.Thread(
            target=lambda: opened.update(state.open_session()), daemon=True
        )
        chunk = speech.dataset.features[int(speech.test_idx[0])][:4].tolist()
        replies = {}

        def start(name, call):
            thread = threading.Thread(
                target=lambda: replies.update({name: call()}), daemon=True
            )
            thread.start()
            return thread

        opener.start()
        try:
            assert building.wait(timeout=5)
            deadline = time.monotonic() + 1.0
            metrics = start("metrics", state.metrics)
            feed = start("feed", lambda: state.session_feed(first, chunk))
            feed.join(timeout=max(0.0, deadline - time.monotonic()))
            # The close waits for the feed, which it would otherwise race.
            close = start("close", lambda: state.close_session(first))
            for thread in (metrics, close):
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in (metrics, feed, close))
            assert opener.is_alive()
            assert replies["metrics"]["sessions"]["opened"] == 1
            assert replies["feed"]["frames"] == 4
            assert replies["close"]["frames"] == 4
        finally:
            release.set()
            opener.join(timeout=60)
        assert not opener.is_alive()
        assert list(state.sessions) == [opened["session"]]

    def test_concurrent_opens_respect_max_sessions(self, speech, monkeypatch):
        state = pooled_state(speech, max_sessions=1)

        def build(real, model, scheme, stats, rows):
            time.sleep(0.2)
            return real(model, scheme, stats, rows)

        patch_clone_builds(monkeypatch, build)
        opened = []
        refused = []

        def open_one():
            try:
                opened.append(state.open_session()["session"])
            except ValueError as exc:
                refused.append(str(exc))

        threads = [threading.Thread(target=open_one, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(opened) == 1
        assert refused == ["too many open sessions (limit 1); close one first"]
        assert list(state.sessions) == opened
        sessions = state.metrics()["sessions"]
        assert (sessions["open"], sessions["opened"]) == (1, 1)


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
        state.metrics()
        assert held_during_snapshot
        assert all(held_during_snapshot)

    def test_metrics_aggregate_reuse_across_replicas(self, imdb):
        indices = [int(i) for i in imdb.test_idx[:4]]
        state = pooled_state(imdb, replicas=2)
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


class TestLoadgenRetune:
    def test_loadgen_mid_run_retune_verifies_per_version(self, imdb):
        state = pooled_state(imdb, replicas=2)
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


class TestStateValidation:
    def test_bad_pool_parameters_are_rejected(self, imdb):
        with pytest.raises(ValueError, match="replicas"):
            ServeState(imdb, MemoizationScheme(theta=THETA), replicas=0)
