"""Serving state: a pool of warm memoized replicas answering many requests.

:class:`ServeState` is everything behind the HTTP surface of ``repro
serve``.  Since PR 8 the compute side is a **replica pool**: N
structural clones of the trained model (same weight arrays, private
:class:`~repro.core.layers.MemoizedRecurrentLayer` wrappers and memo
state per clone — see
:func:`repro.nn.module.clone_with_shared_parameters`) sit in a
:class:`queue.Queue`; a request checks a replica out, runs its forward,
and puts it back, so K concurrent ``/infer`` requests run up to N
forwards genuinely in parallel.  The repo's row-independence invariant —
no row's computation reads another row of its batch or depends on which
wrapper instance computes it — makes every replica return the same
outputs (labels, transcripts, translations) as a single unpooled model
and as the offline batch evaluation
(:meth:`repro.models.benchmark.Benchmark.evaluate_memoized`).  Those
discrete outputs are what ``repro loadgen --verify`` and the pool tests
compare.  The float activations behind them are not bitwise
batch-invariant: a BLAS GEMM may round a row differently depending on
how many rows it computes at once, by about 1e-16.

On top of the pool sits a **coalescing batcher**.  Requests do not go
straight to a replica: each validated request becomes a job on a shared
pending queue, and whichever request thread checks out a replica first
acts as the *leader* — it drains every waiting equal-shape job (bounded
by :data:`MAX_INFER_ROWS`), stacks their rows into one forward, and
unstacks the outputs per job.  While all other replicas are busy and
requests are visibly coalescing, the leader holds a short gather window
(``coalesce_ms``) for stragglers; a lone request never waits.  This is
the few-builders/many-front-ends topology of the DAQ event-builder
papers: many cheap HTTP acceptor threads feeding a small set of compute
replicas.  Coalescing is latency policy only — by row independence the
stacked forward returns the same outputs as the per-request forwards.

Live retuning swaps the scheme across the *whole pool* atomically: the
retune checks out every replica (waiting for in-flight forwards, which
therefore finish under the scheme of the replica they checked out),
re-wraps each under the new scheme via
:func:`repro.core.engine.swap_scheme`, bumps ``scheme_version`` once,
and returns the pool.  Every response reports the ``scheme_version`` it
was served under so clients can attribute predictions to thresholds.

Streaming sessions give one caller a *private* memoized view of the
recurrent stack: fresh wrappers over the same weights, with predictor
and memo state that persists across chunk requests instead of resetting
per request.  Sessions carry a ``last_used`` stamp and are evicted after
``session_ttl`` seconds idle, so abandoned clients cannot permanently
exhaust ``max_sessions``.  A chunked transcription equals the one-shot
transcription of the concatenated frames: chunking only splits the
timestep loop around preserved state.  (A session steps one frame at a
time, so its activations agree with the one-shot forward's to float
tolerance, not bitwise; the transcripts are what compare.)  Sessions
wrap the same layers, so their feeds step one set of cells from several
threads at once; the cells keep no per-call scratch, so concurrent
sessions cannot see each other's products.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import (
    MemoizationScheme,
    apply_memoization,
    iter_recurrent_layers,
    restore,
    swap_scheme,
)
from repro.core.layers import wrap_layer
from repro.core.stats import ReuseStats, ThreadSafeReuseStats
from repro.datasets.speech import collapse
from repro.models.benchmark import Benchmark
from repro.nn.module import clone_with_shared_parameters
from repro.nn.rnn import Bidirectional
from repro.obs import EventLog, Histogram, MetricsRegistry

Array = np.ndarray

#: Upper bound on rows per ``/infer`` request *and* per coalesced
#: forward: enough for any sane client batch, small enough that one
#: forward cannot monopolise a replica for an unbounded stretch.
MAX_INFER_ROWS = 256

#: Default gather window for the coalescing batcher, in milliseconds.
#: Only consulted when every other replica is busy and at least two
#: jobs already coalesced — a lone request is never delayed by it.
#: Zero disables coalescing entirely (one request per forward).
DEFAULT_COALESCE_MS = 2.0

#: Default idle TTL for streaming sessions, in seconds (~10 min).  A
#: non-positive TTL disables eviction.
DEFAULT_SESSION_TTL = 600.0

#: Safety-net sleep for a request thread waiting on a replica.  The real
#: wake path is the pending condition — leaders notify it whenever they
#: return a replica or finish jobs — so this bound is only reached if a
#: wakeup is lost.
_POOL_WAIT_S = 0.05

#: Latency bucket upper bounds in milliseconds: log-spaced from 0.25 ms
#: to ~2 minutes, covering sub-millisecond tiny-model hits through
#: queued bench-scale batches.  The histogram is fixed-size, so metrics
#: memory is bounded for the life of the server.
LATENCY_BOUNDS_MS = tuple(0.25 * 2**i for i in range(19))


class LatencyHistogram(Histogram):
    """Fixed-bucket latency histogram, safe for concurrent observers.

    Since PR 9 this is the registry :class:`~repro.obs.Histogram` under
    its original name and constructor: ``observe(ms)`` and
    ``snapshot()`` keep their PR 7 signatures and the snapshot shape is
    unchanged, but the same series now also renders into the Prometheus
    exposition at ``/metrics.prom``.
    """

    def __init__(self, bounds_ms: Sequence[float] = LATENCY_BOUNDS_MS):
        super().__init__(
            "repro_request_latency_ms",
            "End-to-end inference latency in milliseconds.",
            bounds_ms=bounds_ms,
        )


# -- task adapters -----------------------------------------------------------


class TaskAdapter:
    """Validates request rows and runs them through a benchmark model.

    One adapter per application domain; ``validate_row`` raises
    :class:`ValueError` with a client-worthy message (the HTTP layer maps
    it to a 400), ``infer`` turns validated rows into JSON-serializable
    outputs.  Rows of equal shape are stacked into one forward (the same
    outputs as per-row evaluation, by the row-independence invariant);
    ragged batches fall back to row-at-a-time.

    ``infer`` takes the model to run explicitly so one adapter serves
    every replica in the pool; without one it falls back to the
    benchmark's own (unwrapped — no memoization) model.
    """

    kind = "generic"
    streamable = False

    def __init__(self, benchmark: Benchmark):
        self.benchmark = benchmark
        self.model = benchmark.model

    def validate_row(self, row: object) -> Array:
        raise NotImplementedError

    def infer(self, rows: List[Array], model=None) -> List[object]:
        model = self.model if model is None else model
        if all(row.shape == rows[0].shape for row in rows):
            return self._infer_batch(np.stack(rows), model)
        outputs: List[object] = []
        for row in rows:
            outputs.extend(self._infer_batch(row[None], model))
        return outputs

    def _infer_batch(self, batch: Array, model) -> List[object]:
        raise NotImplementedError


def _validate_token_row(row: object, vocab: int, what: str) -> Array:
    if not isinstance(row, list) or not row:
        raise ValueError(f"each {what} row must be a non-empty list of ints")
    if not all(isinstance(token, int) and not isinstance(token, bool)
               for token in row):
        raise ValueError(f"{what} tokens must be integers")
    if not all(0 <= token < vocab for token in row):
        raise ValueError(f"{what} tokens must be in [0, {vocab})")
    return np.asarray(row, dtype=np.int64)


class SentimentAdapter(TaskAdapter):
    """IMDB-style: token rows in, one class label per row out."""

    kind = "sentiment"

    def validate_row(self, row: object) -> Array:
        return _validate_token_row(row, self.benchmark.dataset.vocab_size,
                                   "token")

    def _infer_batch(self, batch: Array, model) -> List[object]:
        return [int(label) for label in model.predict(batch)]


class SpeechAdapter(TaskAdapter):
    """Speech: (T, F) feature-frame rows in, collapse-decoded
    transcripts out.  Streamable when the stack is unidirectional."""

    kind = "speech"

    def __init__(self, benchmark: Benchmark):
        super().__init__(benchmark)
        self.feature_dim = benchmark.dataset.feature_dim
        self.streamable = not any(
            isinstance(layer, Bidirectional) for layer in self.model.stack.layers
        )

    def validate_row(self, row: object) -> Array:
        try:
            frames = np.asarray(row, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError("each speech row must be a (frames x features) "
                             "array of numbers") from None
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError("each speech row must be a non-empty "
                             "(frames x features) array")
        if frames.shape[1] != self.feature_dim:
            raise ValueError(
                f"speech rows must have {self.feature_dim} features per "
                f"frame, got {frames.shape[1]}"
            )
        if not np.isfinite(frames).all():
            raise ValueError("speech rows must be finite numbers")
        return frames

    def _infer_batch(self, batch: Array, model) -> List[object]:
        return [list(transcript) for transcript in model.transcribe(batch)]


class TranslationAdapter(TaskAdapter):
    """MNMT-style: source-token rows in, decoded target rows out.

    Decoding always runs ``early_stop=False`` with the evaluation path's
    step budget, so a served row sees exactly the decoder-step count it
    would inside any offline batch — the precondition for bitwise
    equality with ``evaluate_memoized``.
    """

    kind = "translation"

    def __init__(self, benchmark: Benchmark):
        super().__init__(benchmark)
        self.max_len = benchmark.dataset.length + 2

    def validate_row(self, row: object) -> Array:
        return _validate_token_row(row, self.benchmark.dataset.vocab_size,
                                   "source")

    def _infer_batch(self, batch: Array, model) -> List[object]:
        hypotheses = model.translate(
            batch, max_len=self.max_len, early_stop=False
        )
        return [list(hypothesis) for hypothesis in hypotheses]


_ADAPTERS = {
    "imdb": SentimentAdapter,
    "deepspeech2": SpeechAdapter,
    "eesen": SpeechAdapter,
    "mnmt": TranslationAdapter,
}


def make_adapter(benchmark: Benchmark) -> TaskAdapter:
    try:
        adapter = _ADAPTERS[benchmark.name]
    except KeyError:
        raise ValueError(
            f"no serving adapter for benchmark {benchmark.name!r}; "
            f"known: {sorted(_ADAPTERS)}"
        ) from None
    return adapter(benchmark)


# -- the replica pool --------------------------------------------------------


class Replica:
    """One independently-wrapped compute copy of the served model.

    The model is a structural clone sharing every weight array with the
    benchmark's trained model; memoization wrappers, predictors and memo
    tables are private, as is the :class:`ThreadSafeReuseStats` the
    wrappers record into — so replicas never contend on a stats lock in
    the inference hot path.  Exclusive use is guaranteed by pool
    checkout, and ``scheme``/``scheme_version`` are only rewritten by a
    retune that holds the checkout.
    """

    def __init__(
        self,
        index: int,
        model,
        scheme: MemoizationScheme,
        scheme_version: int,
    ):
        self.index = index
        self.model = clone_with_shared_parameters(model)
        self.stats = ThreadSafeReuseStats()
        self.replacements = apply_memoization(self.model, scheme, self.stats)
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
        # Equal-shape rows stack with other jobs; ragged jobs ride alone
        # (the adapter already falls back to row-at-a-time for them).
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
    """One caller's private memoized view of the recurrent stack.

    Wrappers are built over the *original* layers (same weights as the
    pool's replicas) but with their own predictors and memo tables,
    started once at open: chunk requests thread the recurrent state
    through, so the memo stays warm across requests instead of resetting
    — and the transcript of all chunks equals the one-shot transcript of
    the full utterance.

    ``last_used`` drives idle eviction; ``lock`` serializes feeds into
    this session (feeds into *different* sessions run concurrently).
    """

    def __init__(self, session_id: str, wrappers: List[object],
                 scheme_version: int, theta: float):
        self.session_id = session_id
        self.wrappers = wrappers
        self.states = [wrapper.start_state(1) for wrapper in wrappers]
        self.scheme_version = scheme_version
        self.theta = theta
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
        coalesce_ms: gather window of the coalescing batcher; ``0``
            disables coalescing entirely (one request per forward — the
            single-model baseline behaviour).
        session_ttl: seconds a streaming session may sit idle before it
            is evicted; non-positive disables eviction.
    """

    def __init__(
        self,
        benchmark: Benchmark,
        scheme: MemoizationScheme,
        max_sessions: int = 64,
        replicas: int = 1,
        coalesce_ms: float = DEFAULT_COALESCE_MS,
        session_ttl: float = DEFAULT_SESSION_TTL,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if coalesce_ms < 0:
            raise ValueError("coalesce_ms must be non-negative")
        benchmark.ensure_trained()
        self.benchmark = benchmark
        self.adapter = make_adapter(benchmark)
        #: Streaming-session wrappers record here; replica stats live on
        #: the replicas and are merged in at read time.
        self.stats = ThreadSafeReuseStats()
        self.lock = threading.RLock()
        self.scheme = scheme  # guarded-by: lock
        self.scheme_version = 1  # guarded-by: lock
        #: (layer, dotted_name) in walk order over the *unwrapped* model
        #: — the template sessions and clones are wrapped from.
        self._recurrent_layers = list(iter_recurrent_layers(benchmark.model))
        self.layer_names = [dotted for _, dotted in self._recurrent_layers]
        self._replicas = [
            Replica(index, benchmark.model, scheme, self.scheme_version)
            for index in range(replicas)
        ]
        self._pool: "queue.Queue[Replica]" = queue.Queue()
        for replica in self._replicas:
            self._pool.put(replica)
        self.coalesce_ms = float(coalesce_ms)
        self._coalesce_s = self.coalesce_ms / 1000.0
        self._pending: List[_InferJob] = []  # guarded-by: _pending_cond
        self._pending_cond = threading.Condition()
        #: Guards the plain counters below.  Leaders take only this lock
        #: while holding a replica — never ``self.lock``, which a retune
        #: holds while draining the pool (lock-order discipline that
        #: keeps retune/serve deadlock-free).
        self._counters_lock = threading.Lock()
        #: One registry + event log per served process.  The HTTP shell
        #: is handed both, so engine metrics, request counters and
        #: events share one ``/metrics.prom`` / ``/api/v1/events``.
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self.latency = LatencyHistogram()
        self.registry.register(self.latency)
        self.stage_latency = self.registry.histogram(
            "repro_infer_stage_ms",
            "Per-request span timings by pipeline stage, in milliseconds.",
            label_names=("stage",),
        )
        self.started_at = time.monotonic()  # feeds uptime_s spans
        self.infer_requests = 0  # guarded-by: _counters_lock
        self.rows_served = 0  # guarded-by: _counters_lock
        self.batches = 0  # guarded-by: _counters_lock
        self.coalesced_batches = 0  # guarded-by: _counters_lock
        self.max_batch_jobs = 0  # guarded-by: _counters_lock
        self.max_batch_rows = 0  # guarded-by: _counters_lock
        self.batch_jobs_hist: Dict[int, int] = {}  # guarded-by: _counters_lock
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
        rows = [self.adapter.validate_row(row) for row in raw_rows]
        job = _InferJob(rows, request_id=request_id)
        with self._pending_cond:
            self._pending.append(job)
            self._pending_cond.notify_all()  # wake gather-window leaders
        while not job.done.is_set():
            replica = None
            with self._pending_cond:
                if job.done.is_set():
                    break
                try:
                    replica = self._pool.get_nowait()
                except queue.Empty:
                    # No free replica: sleep until a leader returns one
                    # (it notifies this condition) or finishes our job.
                    # The timeout is a safety net, not the wake path.
                    self._pending_cond.wait(_POOL_WAIT_S)
            if replica is None:
                continue
            try:
                self._run_one_batch(replica)
            finally:
                with self._pending_cond:
                    self._pool.put(replica)
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
        Each stage also lands in the ``repro_infer_stage_ms`` histogram.
        """
        claimed = job.claimed or job.started
        forward_start = job.forward_start or claimed
        forward_end = job.forward_end or forward_start
        finished = job.finished or forward_end
        spans = (
            ("validate", job.started - accepted),
            ("queue_wait", claimed - job.started),
            ("gather", forward_start - claimed),
            ("forward", forward_end - forward_start),
            ("finalize", finished - forward_end),
            ("collect", end - finished),
        )
        timings_ms: Dict[str, float] = {}
        total = 0.0
        for stage, seconds in spans:
            stage_ms = 1000.0 * max(0.0, seconds)
            timings_ms[stage] = stage_ms
            total += stage_ms
            self.stage_latency.observe(stage_ms, labels=(stage,))
        timings_ms["total"] = total
        return timings_ms

    def _gather_batch(self) -> List[_InferJob]:
        """Claim a coalesced batch of pending jobs for one forward.

        The head of the pending queue defines the batch: every waiting
        job with the same row shape joins it (FIFO, skipping
        incompatible shapes) until :data:`MAX_INFER_ROWS`.  A ragged job
        rides alone.  The gather window is only held when this is the
        last free replica *and* at least two jobs already coalesced —
        evidence of real concurrency; a lone request is never delayed.
        """
        batch: List[_InferJob] = []
        total_rows = 0
        deadline = None
        with self._pending_cond:
            if self._coalesce_s <= 0:
                # Coalescing off: one job per forward — the PR 7-style
                # baseline the replica-sweep bench compares against.
                if not self._pending:
                    return []
                job = self._pending.pop(0)
                job.claimed = time.perf_counter()
                return [job]
            while True:
                index = 0
                while index < len(self._pending) and total_rows < MAX_INFER_ROWS:
                    job = self._pending[index]
                    if not batch:
                        del self._pending[index]
                        job.claimed = time.perf_counter()
                        batch.append(job)
                        total_rows += len(job.rows)
                        if job.shape_key is None:
                            return batch
                        continue
                    if (
                        job.shape_key == batch[0].shape_key
                        and total_rows + len(job.rows) <= MAX_INFER_ROWS
                    ):
                        del self._pending[index]
                        job.claimed = time.perf_counter()
                        batch.append(job)
                        total_rows += len(job.rows)
                        continue
                    index += 1
                if not batch:
                    return []
                if (
                    len(batch) < 2
                    or total_rows >= MAX_INFER_ROWS
                    or self._pool.qsize() > 0
                ):
                    return batch
                if deadline is None:
                    deadline = time.monotonic() + self._coalesce_s
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return batch
                self._pending_cond.wait(remaining)

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
            outputs = self.adapter.infer(all_rows, model=replica.model)
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
        with self._counters_lock:
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
        """Atomically re-wrap every replica under an updated scheme.

        ``updates`` may set ``theta``, ``layer_thetas`` (a mapping, or
        ``None`` to clear the overrides), ``predictor`` and ``throttle``.
        The retune checks out the whole pool — in-flight requests finish
        under their checkout's scheme first — swaps each replica via
        :func:`swap_scheme`, bumps ``scheme_version`` exactly once, and
        returns the replicas.  A failed swap restores every
        already-swapped replica to the old scheme before the exception
        propagates, so the pool is never mixed-scheme.
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
        with self.lock:
            new_scheme = replace(self.scheme, **changes)  # may raise ValueError
            checked_out = [self._pool.get() for _ in self._replicas]
            try:
                swapped: List[Replica] = []
                try:
                    for replica in checked_out:
                        swap_scheme(
                            replica.model,
                            replica.replacements,
                            replica.scheme,
                            new_scheme,
                            replica.stats,
                        )
                        swapped.append(replica)
                except Exception:
                    # Pool-wide atomicity: un-swap the ones that made it.
                    for replica in swapped:
                        swap_scheme(
                            replica.model,
                            replica.replacements,
                            new_scheme,
                            replica.scheme,
                            replica.stats,
                        )
                    raise
                version = self.scheme_version + 1
                for replica in checked_out:
                    replica.scheme = new_scheme
                    replica.scheme_version = version
            finally:
                with self._pending_cond:
                    for replica in checked_out:
                        self._pool.put(replica)
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

    def open_session(self) -> Dict[str, object]:
        if not self.adapter.streamable:
            raise ValueError(
                f"model {self.benchmark.name!r} does not support streaming "
                "sessions (only unidirectional speech stacks do)"
            )
        now = time.monotonic()
        with self.lock:
            self._evict_idle_sessions(now)
            if len(self.sessions) >= self.max_sessions:
                raise ValueError(
                    f"too many open sessions (limit {self.max_sessions}); "
                    "close one first"
                )
            session_id = os.urandom(8).hex()
            scheme = self.scheme
            wrappers = [
                wrap_layer(
                    layer,
                    scheme.with_theta(scheme.theta_for(dotted)).make_predictor,
                    self.stats,
                    name=dotted,
                )
                for layer, dotted in self._recurrent_layers
            ]
            session = StreamSession(
                session_id, wrappers, self.scheme_version, scheme.theta
            )
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
        """Run one chunk of frames through a session's warm stack.

        Feeds into different sessions run concurrently (each session's
        wrappers are private); feeds into one session serialize on its
        lock.  The classifier belongs to the shared unwrapped model and
        is a pure function of its weights, so sharing it is race-free.
        """
        accepted = time.perf_counter()
        frames = self.adapter.validate_row(chunk)
        start = time.perf_counter()
        now = time.monotonic()
        with self.lock:
            self._evict_idle_sessions(now)
            session = self._session(session_id)
            session.last_used = now
        with session.lock:
            forward_start = time.perf_counter()
            hidden = frames[None]  # (1, T, F)
            steps = hidden.shape[1]
            for index, wrapper in enumerate(session.wrappers):
                out = np.empty((1, steps, wrapper.hidden_size))
                state = session.states[index]
                for t in range(steps):
                    out[:, t, :], state = wrapper.step(hidden[:, t, :], state)
                session.states[index] = state
                hidden = out
            logits = self.benchmark.model.classifier(hidden)
            predictions = [int(p) for p in logits.argmax(axis=-1)[0]]
            session.decoded.extend(predictions)
            session.frames_fed += steps
            session.last_used = time.monotonic()
        forward_end = time.perf_counter()
        with self._counters_lock:
            self.infer_requests += 1
            self.rows_served += 1
        end = time.perf_counter()
        self.latency.observe(1000.0 * (end - start))
        # Same contiguous-segment discipline as the batched path, with
        # session-shaped stages: the sum is exactly ``accepted -> end``.
        spans = (
            ("validate", start - accepted),
            ("session_wait", forward_start - start),
            ("forward", forward_end - forward_start),
            ("finalize", end - forward_end),
        )
        timings_ms: Dict[str, float] = {}
        total = 0.0
        for stage, seconds in spans:
            stage_ms = 1000.0 * max(0.0, seconds)
            timings_ms[stage] = stage_ms
            total += stage_ms
            self.stage_latency.observe(stage_ms, labels=(stage,))
        timings_ms["total"] = total
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
            available = self._pool.qsize()
            with self._counters_lock:
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
                    "window_ms": self.coalesce_ms,
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

        The serving counters live under ``_counters_lock`` (the hot
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

    # -- shutdown helper ----------------------------------------------------

    def unwrap(self) -> None:
        """Dispose the replica pool (waits for in-flight forwards).

        The shared benchmark model is never wrapped, so there is nothing
        to restore on it — each checked-back-in clone is unwrapped and
        the pool refilled so a late caller cannot block forever.
        """
        with self.lock:
            drained = [self._pool.get() for _ in self._replicas]
            for replica in drained:
                restore(replica.replacements)
                replica.replacements = []
            with self._pending_cond:
                for replica in drained:
                    self._pool.put(replica)
                self._pending_cond.notify_all()


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
