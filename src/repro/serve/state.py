"""Serving state: a pool of warm memoized replicas answering many requests.

:class:`ServeState` is everything behind the HTTP surface of ``repro
serve``.  The compute side is a **replica pool**: N memoized clones of
the trained model (same weight arrays, private
:class:`~repro.core.layers.MemoizedRecurrentLayer` wrappers and memo
state per clone — see :func:`memoized_clone`) sit in an idle list; a
request checks a replica out, runs its forward, and puts it back, so K
concurrent ``/infer`` requests run up to N forwards genuinely in
parallel.  The repo's row-independence invariant —
no row's computation reads another row of its batch or depends on which
wrapper instance computes it — makes every replica return the same
outputs (labels, transcripts, translations) as a single unpooled model
and as the offline batch evaluation
(:meth:`repro.models.benchmark.Benchmark.evaluate_memoized`).  Those
discrete outputs are what ``repro loadgen --verify`` and the pool tests
compare.  The float activations behind them are not bitwise
batch-invariant: a BLAS GEMM may round a row differently depending on
how many rows it computes at once, by about 1e-16.

On top of the pool sits a **coalescing batcher** with one rule.
Requests do not go straight to a replica: each validated request becomes
a job on a shared pending queue, and whichever request thread checks out
a replica first acts as the *leader*.  It claims every pending job that
stacks with the oldest one — FIFO, same row shape, at most
:data:`MAX_INFER_ROWS` rows in all, a ragged job alone — runs their rows
as one forward at once, and unstacks the outputs per job.  A leader
never waits for jobs that have not arrived: jobs that queue up during a
forward are what the next leader stacks.  This is the
few-builders/many-front-ends topology of the DAQ event-builder papers:
many cheap HTTP acceptor threads feeding a small set of compute
replicas.  Coalescing changes no output — by row independence the
stacked forward returns the same outputs as the per-request forwards.
One condition, ``_pending_cond``, guards the pending queue, the idle
list and the serving counters; a request waiting for a replica sleeps
on it until a leader or a retune hands replicas back.

Live retuning builds, then swaps.  A retune first builds one memoized
clone per replica under the new scheme while the pool keeps serving; a
failed build therefore raises before anything changed.  It then drains
the pool (waits until every replica is idle and holds them all, so
in-flight forwards finish under the scheme they started with), points
each replica at its clone, bumps ``scheme_version`` once, and returns
the pool.  ``/infer`` traffic waits for the drain and the pointer swaps,
not for the build.  Every response reports the ``scheme_version`` it was
served under so clients can attribute predictions to thresholds.

The state knows no network by name.  Every request row passes the
benchmark's :meth:`~repro.models.benchmark.Benchmark.validate_row`, and
every batch decodes through
:meth:`~repro.models.benchmark.Benchmark.outputs` on a replica's model:
the decode that offline evaluation and the verifier run too.

Streaming sessions give one caller a *private* memoized model, built the
way a replica is (:func:`memoized_clone`), whose predictor and memo state
persist across chunk requests instead of resetting per request.  A feed
is one :meth:`~repro.models.speech_model.SpeechModel.stream` call, which
steps the stack through the chunk from the session's state, so the
joined chunk labels are the offline memoized forward's per-frame labels
and the closing transcript is the one-shot transcript.  (A session steps
one frame at a time, so its activations agree with the one-shot
forward's to float tolerance, not bitwise; the labels are what compare.)
Sessions carry a ``last_used`` stamp and are evicted after
``session_ttl`` seconds idle, so abandoned clients cannot permanently
exhaust ``max_sessions``.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import (
    MemoizationScheme,
    apply_memoization,
    iter_recurrent_layers,
)
from repro.core.stats import ReuseRecorder, ReuseStats, ThreadSafeReuseStats
from repro.datasets.speech import collapse
from repro.models.benchmark import Benchmark
from repro.nn.module import clone_with_shared_parameters
from repro.obs import EventLog, MetricsRegistry

Array = np.ndarray

#: Upper bound on rows per ``/infer`` request *and* per coalesced
#: forward: enough for any sane client batch, small enough that one
#: forward cannot monopolise a replica for an unbounded stretch.
MAX_INFER_ROWS = 256

#: Default idle TTL for streaming sessions, in seconds (~10 min).  A
#: non-positive TTL disables eviction.
DEFAULT_SESSION_TTL = 600.0

# -- the replica pool --------------------------------------------------------


def memoized_clone(model, scheme: MemoizationScheme, stats: ReuseRecorder):
    """A weight-sharing clone of ``model``, memoized under ``scheme``.

    The clone shares every weight array with ``model`` (see
    :func:`repro.nn.module.clone_with_shared_parameters`) and owns its
    wrappers, predictors and memo tables, which record into ``stats``.
    ``model`` itself is never wrapped, and the clone is never unwrapped:
    a new scheme gets a new clone.
    """
    clone = clone_with_shared_parameters(model)
    apply_memoization(clone, scheme, stats)
    return clone


class Replica:
    """One independently-memoized compute copy of the served model.

    ``model`` is a :func:`memoized_clone` of the benchmark's trained
    model, recording into the replica's own
    :class:`ThreadSafeReuseStats` — so replicas never contend on a stats
    lock in the inference hot path.  Exclusive use is guaranteed by pool
    checkout, and ``model``/``scheme``/``scheme_version`` are only
    rewritten by a retune that holds the whole drained pool.
    """

    def __init__(
        self,
        index: int,
        model,
        scheme: MemoizationScheme,
        scheme_version: int,
    ):
        self.index = index
        self.stats = ThreadSafeReuseStats()
        self.model = memoized_clone(model, scheme, self.stats)
        self.scheme = scheme
        self.scheme_version = scheme_version
        self.requests_served = 0
        self.rows_served = 0
        self.batches_served = 0


class _InferJob:
    """One ``/infer`` request waiting for (or holding) its outputs."""

    __slots__ = (
        "rows", "shape_key", "done", "outputs", "error",
        "scheme_version", "theta", "started",
        "request_id", "claimed", "forward_start", "forward_end", "finished",
    )

    def __init__(self, rows: List[Array], request_id: Optional[str] = None):
        self.rows = rows
        first = rows[0].shape
        # Equal-shape rows stack with other jobs; a ragged job rides
        # alone and runs one forward per row.
        self.shape_key: Optional[Tuple[int, ...]] = (
            first if all(row.shape == first for row in rows) else None
        )
        self.done = threading.Event()
        self.outputs: Optional[List[object]] = None
        self.error: Optional[BaseException] = None
        self.scheme_version = 0
        self.theta = 0.0
        self.request_id = request_id
        # Span timestamps (perf_counter).  ``started`` stamps job
        # creation; the leader stamps ``claimed`` (popped off pending),
        # ``forward_start``/``forward_end`` (around the stacked forward)
        # and ``finished`` (outputs sliced back); the request thread
        # turns the contiguous segments into ``timings_ms``.
        self.started = time.perf_counter()
        self.claimed = 0.0
        self.forward_start = 0.0
        self.forward_end = 0.0
        self.finished = 0.0


# -- streaming sessions ------------------------------------------------------


class StreamSession:
    """One caller's private memoized model of a streamable network.

    Built the way a :class:`Replica` is: a :func:`memoized_clone` of the
    trained model under the scheme live at open, recording into
    ``stats``.  ``states`` is the stack's state after the
    chunks fed so far (``None`` before the first), so the memo stays warm
    across requests instead of resetting.

    ``last_used`` drives idle eviction; ``lock`` serializes feeds into
    this session (feeds into *different* sessions run concurrently).
    """

    def __init__(
        self,
        session_id: str,
        model,
        scheme: MemoizationScheme,
        scheme_version: int,
        stats: ThreadSafeReuseStats,
    ):
        self.session_id = session_id
        self.model = memoized_clone(model, scheme, stats)
        self.states: Optional[List[object]] = None
        self.scheme_version = scheme_version
        self.theta = scheme.theta
        self.decoded: List[int] = []
        self.frames_fed = 0
        # Monotonic: last_used feeds idle-TTL spans, which must not
        # jump when NTP steps the wall clock.
        self.last_used = time.monotonic()
        self.lock = threading.Lock()


class SessionError(KeyError):
    """Unknown or already-closed session id (HTTP 404)."""


def _require_finite_number(value: object, what: str) -> None:
    """Reject bools (an ``int`` subclass!) and non-finite floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite")


# -- the state object --------------------------------------------------------


class ServeState:
    """Everything one ``repro serve`` process owns.

    Args:
        benchmark: a zoo benchmark; trained on construction if needed
            (the one expensive startup step — requests only run forwards).
            The benchmark's own model is never wrapped: replicas are
            weight-sharing clones, so offline evaluation of the same
            benchmark can proceed concurrently with serving.
        scheme: the initial memoization scheme.
        max_sessions: open streaming sessions allowed at once.
        replicas: compute copies in the pool (>= 1).
        session_ttl: seconds a streaming session may sit idle before it
            is evicted; non-positive disables eviction.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        scheme: MemoizationScheme,
        max_sessions: int = 64,
        replicas: int = 1,
        session_ttl: float = DEFAULT_SESSION_TTL,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        benchmark.ensure_trained()
        self.benchmark = benchmark
        #: Streaming sessions record here; replica stats live on the
        #: replicas and are merged in at read time.
        self.stats = ThreadSafeReuseStats()
        #: Serializes retunes for their whole length, clone builds
        #: included, so ``self.lock`` is held only for the short reads and
        #: the pool swap.  Lock order: ``_retune_lock`` -> ``lock`` ->
        #: ``_pending_cond`` (``pytest --lock-sanitizer`` checks it).
        self._retune_lock = threading.Lock()
        self.lock = threading.RLock()
        self.scheme = scheme  # guarded-by: lock
        self.scheme_version = 1  # guarded-by: lock
        self.layer_names = [
            dotted for _, dotted in iter_recurrent_layers(benchmark.model)
        ]
        self._replicas = [
            Replica(index, benchmark.model, scheme, self.scheme_version)
            for index in range(replicas)
        ]
        #: Guards the pending queue, the idle replicas and the serving
        #: counters below.  Leaders take only this condition while
        #: holding a replica — never ``self.lock``, which a retune holds
        #: while draining the pool (lock-order discipline that keeps
        #: retune/serve deadlock-free).
        self._pending_cond = threading.Condition()
        self._pending: List[_InferJob] = []  # guarded-by: _pending_cond
        self._idle: List[Replica] = list(self._replicas)  # guarded-by: _pending_cond
        #: One registry + event log per served process.  The HTTP shell
        #: is handed both, so engine metrics, request counters and
        #: events share one ``/metrics.prom`` / ``/api/v1/events``.
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self.latency = self.registry.histogram(
            "repro_request_latency_ms",
            "End-to-end inference latency in milliseconds.",
        )
        self.stage_latency = self.registry.histogram(
            "repro_infer_stage_ms",
            "Per-request span timings by pipeline stage, in milliseconds.",
            label_names=("stage",),
        )
        self.started_at = time.monotonic()  # feeds uptime_s spans
        self.infer_requests = 0  # guarded-by: _pending_cond
        self.rows_served = 0  # guarded-by: _pending_cond
        self.batches = 0  # guarded-by: _pending_cond
        self.coalesced_batches = 0  # guarded-by: _pending_cond
        self.max_batch_jobs = 0  # guarded-by: _pending_cond
        self.max_batch_rows = 0  # guarded-by: _pending_cond
        self.batch_jobs_hist: Dict[int, int] = {}  # guarded-by: _pending_cond
        self.max_sessions = max_sessions
        self.session_ttl = float(session_ttl)
        self.sessions: Dict[str, StreamSession] = {}  # guarded-by: lock
        self.sessions_opened = 0  # guarded-by: lock
        self.sessions_closed = 0  # guarded-by: lock
        self.sessions_evicted = 0  # guarded-by: lock

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    # -- inference ----------------------------------------------------------

    def infer(
        self,
        raw_rows: Sequence[object],
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Validate and evaluate a batch of rows under the live scheme.

        The request becomes a job on the pending queue; this thread then
        competes for a replica and, when it gets one, serves *whatever
        is pending* (possibly several coalesced requests, possibly not
        its own — another leader may already have taken it).  Either
        way it returns once its own job is done.
        """
        accepted = time.perf_counter()
        if not isinstance(raw_rows, list) or not raw_rows:
            raise ValueError("inputs must be a non-empty list of rows")
        if len(raw_rows) > MAX_INFER_ROWS:
            raise ValueError(
                f"at most {MAX_INFER_ROWS} rows per request, "
                f"got {len(raw_rows)}"
            )
        rows = [self.benchmark.validate_row(row) for row in raw_rows]
        job = _InferJob(rows, request_id=request_id)
        with self._pending_cond:
            self._pending.append(job)
            self._pending_cond.notify_all()
        while True:
            with self._pending_cond:
                # Sleep until our job is done, or a replica is idle with
                # work pending.  A new job, a leader returning its replica
                # and a retune returning the pool all notify.
                while not job.done.is_set() and not (self._idle and self._pending):
                    self._pending_cond.wait()
                if job.done.is_set():
                    break
                replica = self._idle.pop()
            try:
                self._run_one_batch(replica)
            finally:
                with self._pending_cond:
                    self._idle.append(replica)
                    self._pending_cond.notify_all()
        if job.error is not None:
            raise job.error
        end = time.perf_counter()
        self.latency.observe(1000.0 * (end - job.started))
        timings_ms = self._finish_spans(job, accepted, end)
        self.events.emit(
            "infer",
            request_id=request_id,
            rows=len(rows),
            scheme_version=job.scheme_version,
            total_ms=timings_ms["total"],
        )
        return {
            "outputs": job.outputs,
            "scheme_version": job.scheme_version,
            "theta": job.theta,
            "model": self.benchmark.name,
            "timings_ms": timings_ms,
        }

    def _finish_spans(
        self, job: _InferJob, accepted: float, end: float
    ) -> Dict[str, float]:
        """Turn a finished job's timestamps into per-stage milliseconds.

        The stages are *contiguous segments* of one wall-clock interval
        — ``accepted`` through ``end`` — so their sum IS the measured
        total, exactly, with nothing double-counted or unattributed.
        """
        claimed = job.claimed or job.started
        forward_start = job.forward_start or claimed
        forward_end = job.forward_end or forward_start
        finished = job.finished or forward_end
        return self._stage_timings((
            ("validate", job.started - accepted),
            ("queue_wait", claimed - job.started),
            ("gather", forward_start - claimed),
            ("forward", forward_end - forward_start),
            ("finalize", finished - forward_end),
            ("collect", end - finished),
        ))

    def _stage_timings(
        self, stages: Sequence[Tuple[str, float]]
    ) -> Dict[str, float]:
        """Milliseconds per ``(stage, seconds)`` segment, plus their
        ``total``; each stage also lands in the ``repro_infer_stage_ms``
        histogram."""
        timings_ms: Dict[str, float] = {}
        total = 0.0
        for stage, seconds in stages:
            stage_ms = 1000.0 * max(0.0, seconds)
            timings_ms[stage] = stage_ms
            total += stage_ms
            self.stage_latency.observe(stage_ms, labels=(stage,))
        timings_ms["total"] = total
        return timings_ms

    def _gather_batch(self) -> List[_InferJob]:
        """Claim every pending job that stacks with the oldest one.

        The oldest pending job heads the batch, and each later job of
        the same row shape joins it, in FIFO order, while the batch stays
        within :data:`MAX_INFER_ROWS` rows.  Jobs of another shape, and
        jobs that would pass the cap, stay pending for the next forward.
        A ragged job rides alone.  The scan takes only what is already
        pending and never waits: a job that arrives during this forward
        is stacked by the next leader.
        """
        with self._pending_cond:
            if not self._pending:
                return []
            head = self._pending.pop(0)
            batch = [head]
            if head.shape_key is not None:
                total_rows = len(head.rows)
                waiting: List[_InferJob] = []
                for job in self._pending:
                    if (
                        job.shape_key == head.shape_key
                        and total_rows + len(job.rows) <= MAX_INFER_ROWS
                    ):
                        batch.append(job)
                        total_rows += len(job.rows)
                    else:
                        waiting.append(job)
                self._pending[:] = waiting
            claimed = time.perf_counter()
            for job in batch:
                job.claimed = claimed
            return batch

    def _run_one_batch(self, replica: Replica) -> None:
        """Serve one coalesced batch (possibly empty) on ``replica``."""
        batch = self._gather_batch()
        if not batch:
            return
        all_rows = [row for job in batch for row in job.rows]
        forward_start = time.perf_counter()
        for job in batch:
            job.forward_start = forward_start
        try:
            if batch[0].shape_key is None:
                # A ragged job (it rides alone): one forward per row.
                outputs = [
                    output
                    for row in all_rows
                    for output in self.benchmark.outputs(row[None], replica.model)
                ]
            else:
                outputs = self.benchmark.outputs(np.stack(all_rows), replica.model)
        except BaseException as exc:
            # The error belongs to the batch's jobs, not to this leader,
            # whose own job may not be in the batch: each waiter raises
            # it from its own infer(), and the leader goes back to
            # waiting for its job.  Only interpreter-level exits
            # (KeyboardInterrupt, SystemExit) propagate from here.
            request_error = isinstance(exc, Exception)
            for job in batch:
                if request_error:
                    self.events.emit(
                        "infer_error",
                        request_id=job.request_id,
                        rows=len(job.rows),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                job.error = exc
                job.done.set()
            if not request_error:
                raise
            return
        forward_end = time.perf_counter()
        for job in batch:
            job.forward_end = forward_end
        version = replica.scheme_version
        theta = replica.scheme.theta
        total_rows = len(all_rows)
        with self._pending_cond:
            self.infer_requests += len(batch)
            self.rows_served += total_rows
            self.batches += 1
            if len(batch) > 1:
                self.coalesced_batches += 1
            self.max_batch_jobs = max(self.max_batch_jobs, len(batch))
            self.max_batch_rows = max(self.max_batch_rows, total_rows)
            self.batch_jobs_hist[len(batch)] = (
                self.batch_jobs_hist.get(len(batch), 0) + 1
            )
            replica.requests_served += len(batch)
            replica.rows_served += total_rows
            replica.batches_served += 1
        cursor = 0
        for job in batch:
            job.outputs = outputs[cursor:cursor + len(job.rows)]
            cursor += len(job.rows)
            job.scheme_version = version
            job.theta = theta
            job.finished = time.perf_counter()
            job.done.set()

    # -- live retuning ------------------------------------------------------

    def scheme_info(self) -> Dict[str, object]:
        with self.lock:
            scheme = self.scheme
            return {
                "theta": scheme.theta,
                "predictor": scheme.predictor,
                "throttle": scheme.throttle,
                "layer_thetas": (
                    dict(scheme.layer_thetas) if scheme.layer_thetas else None
                ),
                "layers": list(self.layer_names),
                "scheme_version": self.scheme_version,
            }

    def retune(self, updates: Mapping[str, object]) -> Dict[str, object]:
        """Move every replica to an updated scheme, all at once.

        ``updates`` may set ``theta``, ``layer_thetas`` (a mapping, or
        ``None`` to clear the overrides), ``predictor`` and ``throttle``.
        Retunes run one at a time.  A retune builds one
        :func:`memoized_clone` per replica under the new scheme without
        holding ``self.lock``, so requests, sessions and ``metrics()``
        keep being served meanwhile, and a failed build raises with
        every replica, ``scheme`` and ``scheme_version`` unchanged.  It
        then takes ``self.lock`` and drains the pool — in-flight
        forwards finish under the scheme they started with — points each
        replica at its clone, bumps ``scheme_version`` exactly once, and
        returns the pool, which is therefore never mixed-scheme.
        """
        allowed = {"theta", "layer_thetas", "predictor", "throttle"}
        unknown = set(updates) - allowed
        if unknown:
            raise ValueError(
                f"unknown scheme field(s) {sorted(unknown)}; "
                f"retunable: {sorted(allowed)}"
            )
        if not updates:
            raise ValueError(f"nothing to retune; retunable: {sorted(allowed)}")
        changes = dict(updates)
        if "theta" in changes:
            _require_finite_number(changes["theta"], "theta")
        if "layer_thetas" in changes and changes["layer_thetas"] is not None:
            overrides = changes["layer_thetas"]
            if not isinstance(overrides, dict):
                raise ValueError(
                    "layer_thetas must map layer names to numbers, or null"
                )
            for name, value in overrides.items():
                if not isinstance(name, str):
                    raise ValueError(
                        "layer_thetas must map layer names to numbers, or null"
                    )
                _require_finite_number(value, f"layer_thetas[{name!r}]")
            unknown_layers = set(overrides) - set(self.layer_names)
            if unknown_layers:
                raise ValueError(
                    f"unknown layer(s) {sorted(unknown_layers)}; "
                    f"this model has {self.layer_names}"
                )
        if "predictor" in changes and not isinstance(changes["predictor"], str):
            raise ValueError("predictor must be a string")
        if "throttle" in changes and not isinstance(changes["throttle"], bool):
            raise ValueError("throttle must be a boolean")
        with self._retune_lock:
            with self.lock:
                scheme = self.scheme
            new_scheme = replace(scheme, **changes)  # may raise ValueError
            clones = [
                memoized_clone(self.benchmark.model, new_scheme, replica.stats)
                for replica in self._replicas
            ]
            with self.lock:
                version = self.scheme_version + 1
                with self._pending_cond:
                    # Drain: hold each replica as it comes back idle.
                    drained: List[Replica] = []
                    while len(drained) < len(self._replicas):
                        if not self._idle:
                            self._pending_cond.wait()
                        drained += self._idle
                        self._idle.clear()
                    for replica, clone in zip(self._replicas, clones):
                        replica.model = clone
                        replica.scheme = new_scheme
                        replica.scheme_version = version
                    self._idle.extend(drained)
                    self._pending_cond.notify_all()
                self.scheme = new_scheme
                self.scheme_version = version
                self.events.emit(
                    "retune",
                    scheme_version=version,
                    theta=new_scheme.theta,
                    predictor=new_scheme.predictor,
                    changed=sorted(changes),
                )
                return self.scheme_info()

    # -- streaming sessions -------------------------------------------------

    # checks: holds-lock lock
    def _evict_idle_sessions(self, now: float) -> None:
        """Drop sessions idle past the TTL (caller holds ``self.lock``).

        A session whose lock is held is mid-feed and therefore not idle,
        whatever its stamp says — skip it; the feed refreshes the stamp.
        """
        if self.session_ttl <= 0:
            return
        for session_id, session in list(self.sessions.items()):
            if (
                now - session.last_used > self.session_ttl
                and not session.lock.locked()
            ):
                del self.sessions[session_id]
                self.sessions_evicted += 1
                self.events.emit(
                    "session_evicted",
                    session=session_id,
                    idle_s=round(now - session.last_used, 3),
                )

    # checks: holds-lock lock
    def _require_session_room(self) -> None:
        """Evict idle sessions, then refuse a new one if the table is
        still full (caller holds ``self.lock``)."""
        self._evict_idle_sessions(time.monotonic())
        if len(self.sessions) >= self.max_sessions:
            raise ValueError(
                f"too many open sessions (limit {self.max_sessions}); "
                "close one first"
            )

    def open_session(self) -> Dict[str, object]:
        """Open a streaming session under the live scheme.

        The session's clone is built without holding ``self.lock``, so
        ``metrics()``, other sessions and a retune's swap are served
        meanwhile.  The table is checked before the build, which a full
        table skips, and again before the session is registered, since
        other opens may have filled it during the build.
        """
        if not self.benchmark.streamable:
            raise ValueError(
                f"model {self.benchmark.name!r} does not support streaming "
                "sessions (only unidirectional speech stacks do)"
            )
        with self.lock:
            self._require_session_room()
            scheme, scheme_version = self.scheme, self.scheme_version
        session_id = os.urandom(8).hex()
        session = StreamSession(
            session_id, self.benchmark.model, scheme, scheme_version, self.stats
        )
        with self.lock:
            self._require_session_room()
            self.sessions[session_id] = session
            self.sessions_opened += 1
        self.events.emit(
            "session_opened",
            session=session_id,
            scheme_version=session.scheme_version,
        )
        return {
            "session": session_id,
            "scheme_version": session.scheme_version,
            "theta": session.theta,
            "model": self.benchmark.name,
        }

    # checks: holds-lock lock
    def _session(self, session_id: object) -> StreamSession:
        if not isinstance(session_id, str):
            raise ValueError("session must be a string id")
        try:
            return self.sessions[session_id]
        except KeyError:
            raise SessionError(f"unknown session {session_id!r}") from None

    def session_feed(
        self,
        session_id: object,
        chunk: object,
        request_id: Optional[str] = None,
    ) -> Dict[str, object]:
        """Run one chunk of frames through a session's warm model.

        Feeds into different sessions run concurrently (each session's
        model is private); feeds into one session serialize on its lock.
        """
        accepted = time.perf_counter()
        frames = self.benchmark.validate_row(chunk)
        start = time.perf_counter()
        now = time.monotonic()
        with self.lock:
            self._evict_idle_sessions(now)
            session = self._session(session_id)
            session.last_used = now
        with session.lock:
            forward_start = time.perf_counter()
            labels, session.states = session.model.stream(
                frames[None], session.states
            )
            predictions = labels[0].tolist()
            session.decoded.extend(predictions)
            session.frames_fed += len(predictions)
            session.last_used = time.monotonic()
        forward_end = time.perf_counter()
        with self._pending_cond:
            self.infer_requests += 1
            self.rows_served += 1
        end = time.perf_counter()
        self.latency.observe(1000.0 * (end - start))
        # Same contiguous-segment discipline as the batched path, with
        # session-shaped stages: the sum is exactly ``accepted -> end``.
        timings_ms = self._stage_timings((
            ("validate", start - accepted),
            ("session_wait", forward_start - start),
            ("forward", forward_end - forward_start),
            ("finalize", end - forward_end),
        ))
        self.events.emit(
            "infer",
            request_id=request_id,
            session=session.session_id,
            rows=1,
            scheme_version=session.scheme_version,
            total_ms=timings_ms["total"],
        )
        return {
            "outputs": [predictions],
            "session": session.session_id,
            "frames": session.frames_fed,
            "scheme_version": session.scheme_version,
            "theta": session.theta,
            "model": self.benchmark.name,
            "timings_ms": timings_ms,
        }

    def close_session(self, session_id: object) -> Dict[str, object]:
        """Close a session; returns the collapse-decoded transcript.

        A session evicted for idleness is gone from the table, so
        closing it reports the same 404 :class:`SessionError` as any
        unknown id.
        """
        with self.lock:
            self._evict_idle_sessions(time.monotonic())
            session = self._session(session_id)
            del self.sessions[session_id]
            self.sessions_closed += 1
        self.events.emit(
            "session_closed",
            session=session.session_id,
            frames=session.frames_fed,
        )
        return {
            "session": session.session_id,
            "transcript": list(collapse(session.decoded)),
            "frames": session.frames_fed,
            "scheme_version": session.scheme_version,
        }

    # -- metrics ------------------------------------------------------------

    def aggregate_stats(self) -> ReuseStats:
        """Fleet-wide reuse counters: every replica plus the sessions."""
        return ReuseStats.merged(
            [replica.stats.snapshot() for replica in self._replicas]
            + [self.stats.snapshot()]
        )

    def metrics(
        self, request_counts: Optional[Mapping[str, int]] = None
    ) -> Dict[str, object]:
        """One consistent view of counters, reuse, pool and sessions.

        Everything is read under ``self.lock``: a retune also holds that
        lock for its whole pool swap, so the reuse counters, the scheme
        and the ``scheme_version`` reported here always belong together.
        """
        with self.lock:
            replica_snapshots = [
                replica.stats.snapshot() for replica in self._replicas
            ]
            session_snapshot = self.stats.snapshot()
            stats = ReuseStats.merged(replica_snapshots + [session_snapshot])
            scheme_info = {
                "theta": self.scheme.theta,
                "predictor": self.scheme.predictor,
                "throttle": self.scheme.throttle,
                "scheme_version": self.scheme_version,
            }
            sessions = {
                "open": len(self.sessions),
                "opened": self.sessions_opened,
                "closed": self.sessions_closed,
                "evicted": self.sessions_evicted,
                "ttl_s": self.session_ttl,
            }
            with self._pending_cond:
                available = len(self._idle)
                inference = {
                    "requests": self.infer_requests,
                    "rows": self.rows_served,
                }
                pool = {
                    "replicas": len(self._replicas),
                    "available": available,
                    "busy": len(self._replicas) - available,
                    "per_replica": [
                        {
                            "replica": replica.index,
                            "requests": replica.requests_served,
                            "rows": replica.rows_served,
                            "batches": replica.batches_served,
                            "reuse_fraction": snapshot.reuse_fraction(),
                        }
                        for replica, snapshot in zip(
                            self._replicas, replica_snapshots
                        )
                    ],
                }
                coalesce = {
                    "batches": self.batches,
                    "coalesced_batches": self.coalesced_batches,
                    "max_batch_jobs": self.max_batch_jobs,
                    "max_batch_rows": self.max_batch_rows,
                    "batch_jobs_hist": {
                        str(jobs): count
                        for jobs, count in sorted(self.batch_jobs_hist.items())
                    },
                }
        return {
            "model": {
                "name": self.benchmark.name,
                "scale": self.benchmark.scale,
                "seed": self.benchmark.seed,
                "base_quality": self.benchmark.base_quality,
                "quality_metric": self.benchmark.spec.quality_metric,
            },
            "scheme": scheme_info,
            "uptime_s": time.monotonic() - self.started_at,
            "requests": dict(request_counts or {}),
            "inference": {**inference, "latency_ms": self.latency.snapshot()},
            "pool": pool,
            "coalesce": coalesce,
            "reuse": {
                "overall_fraction": stats.reuse_fraction(),
                "by_layer": stats.by_layer(),
                "total_evaluations": stats.total_evaluations,
                "total_reused": stats.total_reused,
            },
            "sessions": sessions,
        }

    def sync_registry(self) -> Dict[str, object]:
        """Mirror the engine counters into the registry for a scrape.

        The serving counters live under ``_pending_cond`` (the hot
        path), not in the registry; a ``/metrics.prom`` scrape copies
        one consistent :meth:`metrics` snapshot into registry counters
        (``set_total`` — monotonic) and gauges.  Returns the snapshot so
        a caller can render both views from the same numbers.
        """
        snapshot = self.metrics()
        registry = self.registry
        inference = snapshot["inference"]
        pool = snapshot["pool"]
        coalesce = snapshot["coalesce"]
        reuse = snapshot["reuse"]
        sessions = snapshot["sessions"]
        scheme = snapshot["scheme"]
        for name, help_text, value in (
            ("repro_infer_requests_total",
             "Inference requests served.", inference["requests"]),
            ("repro_infer_rows_total",
             "Inference rows served.", inference["rows"]),
            ("repro_batches_total",
             "Forwards run by the replica pool.", coalesce["batches"]),
            ("repro_coalesced_batches_total",
             "Forwards that coalesced 2+ requests.",
             coalesce["coalesced_batches"]),
            ("repro_sessions_opened_total",
             "Streaming sessions opened.", sessions["opened"]),
            ("repro_sessions_closed_total",
             "Streaming sessions closed by the client.", sessions["closed"]),
            ("repro_sessions_evicted_total",
             "Streaming sessions evicted for idleness.", sessions["evicted"]),
            ("repro_reuse_evaluations_total",
             "Neuron evaluations considered for reuse.",
             reuse["total_evaluations"]),
            ("repro_reuse_reused_total",
             "Neuron evaluations answered from the memo.",
             reuse["total_reused"]),
        ):
            registry.counter(name, help_text).set_total(value)
        for name, help_text, value in (
            ("repro_pool_replicas",
             "Compute replicas in the pool.", pool["replicas"]),
            ("repro_pool_available",
             "Replicas currently idle.", pool["available"]),
            ("repro_pool_busy",
             "Replicas currently serving a forward.", pool["busy"]),
            ("repro_sessions_open",
             "Streaming sessions currently open.", sessions["open"]),
            ("repro_reuse_fraction",
             "Fleet-wide fraction of evaluations reused.",
             reuse["overall_fraction"]),
            ("repro_scheme_version",
             "Version of the live memoization scheme.",
             scheme["scheme_version"]),
            ("repro_scheme_theta",
             "Global threshold of the live scheme.", scheme["theta"]),
            ("repro_uptime_seconds",
             "Seconds since the server came up.", snapshot["uptime_s"]),
        ):
            registry.gauge(name, help_text).set(value)
        return snapshot


def parse_layer_thetas(pairs: Sequence[str]) -> Dict[str, float]:
    """Parse CLI ``LAYER=THETA`` override pairs.

    Thresholds must parse as *finite* floats: ``nan``/``inf`` are real
    ``float()`` values that every downstream comparison silently
    mishandles, so they are rejected here at the door.
    """
    overrides: Dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValueError(f"expected LAYER=THETA, got {pair!r}")
        try:
            threshold = float(value)
        except ValueError:
            raise ValueError(f"bad threshold in {pair!r}") from None
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite in {pair!r}")
        overrides[name] = threshold
    return overrides
