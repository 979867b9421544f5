"""The ``repro serve`` HTTP surface: online fuzzy-memoized inference.

A thin JSON-over-HTTP shell around :class:`~repro.serve.state.ServeState`,
built on the same hardened plumbing as the sweep coordinator
(:mod:`repro.runner.transport.http_common`): Bearer-token auth, capped
and gzip-aware body reads, gzip replies, per-route request counters.

Endpoints (all under ``/api/v1``):

==========================  =======  ====================================
``/health``                 GET      liveness + model identity
``/infer``                  POST     ``{inputs: [row, ...]}`` or
                                     ``{input: row}``; with ``session``
                                     feeds a streaming session chunk
``/theta``                  GET      the live scheme (+ layer names)
``/theta``                  PUT      retune: ``{theta, layer_thetas,
                                     predictor, throttle}`` (any subset)
``/metrics``                GET      counters, latency histogram, reuse
``/events``                 GET      bounded structured event ring
``/session/open``           POST     open a streaming session
``/session/close``          POST     ``{session}`` -> final transcript
==========================  =======  ====================================

plus ``/metrics.prom`` (GET, *not* under ``/api/v1``): the same
telemetry as Prometheus text exposition, through the same auth.

Every reply echoes ``X-Repro-Request-Id`` and every ``/infer`` response
body repeats it next to per-stage ``timings_ms``, so a client can line
its own latency up against the server's span breakdown — and find the
same id again in ``/api/v1/events``.

Rows are JSON: token lists for sentiment/translation models, frame
matrices (``T x F`` number lists) for speech.  Every inference response
carries the ``scheme_version`` it was served under, so a client
sweeping thresholds live can attribute each prediction to its scheme.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.prom import PROM_CONTENT_TYPE, render
from repro.runner.transport.http_common import (
    MAX_BODY_BYTES,
    JsonApiHandler,
    JsonApiServer,
    RawReply,
    RequestError,
)
from repro.serve.state import ServeState, SessionError

#: Default ``repro serve`` port (distinct from the coordinator's 8642).
DEFAULT_SERVE_PORT = 8765


class InferenceHandler(JsonApiHandler):
    """Routes one request to the owning server's :class:`ServeState`."""

    server: "InferenceServer"
    server_version = "repro-serve/1"

    @property
    def state(self) -> ServeState:
        return self.server.state

    def _ep_health(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        state = self.state
        return {
            "ok": True,
            "model": state.benchmark.name,
            "scale": state.benchmark.scale,
            "seed": state.benchmark.seed,
            "task": state.benchmark.task,
            "streamable": state.benchmark.streamable,
            "scheme_version": state.scheme_version,
            "replicas": state.replica_count,
        }

    def _ep_infer(self, body: Dict[str, object]) -> Dict[str, object]:
        session_id = body.get("session")
        if "input" in body and "inputs" in body:
            raise RequestError(400, "pass either 'input' or 'inputs', not both")
        if "input" in body:
            rows = [body["input"]]
        else:
            rows = body.get("inputs")
        try:
            if session_id is not None:
                if not isinstance(rows, list) or len(rows) != 1:
                    raise ValueError(
                        "a session request feeds exactly one chunk "
                        "('input', or a one-row 'inputs')"
                    )
                result = self.state.session_feed(
                    session_id, rows[0], request_id=self.request_id
                )
            else:
                result = self.state.infer(rows, request_id=self.request_id)
        except SessionError as exc:
            raise RequestError(404, str(exc.args[0])) from exc
        except ValueError as exc:
            raise RequestError(400, str(exc)) from exc
        result["request_id"] = self.request_id
        return result

    def _ep_theta_get(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        return self.state.scheme_info()

    def _ep_theta_put(self, body: Dict[str, object]) -> Dict[str, object]:
        try:
            info = self.state.retune(body)
        except ValueError as exc:
            raise RequestError(400, str(exc)) from exc
        self._log_event(
            f"retuned to theta={info['theta']} "
            f"(scheme_version {info['scheme_version']})"
        )
        return info

    def _ep_metrics(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        return self.state.metrics(request_counts=self.server.request_counts)

    def _ep_metrics_prom(self, body: Dict[str, object]) -> RawReply:
        del body
        self.state.sync_registry()
        return RawReply(render(self.server.registry), PROM_CONTENT_TYPE)

    def _ep_events(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        return self.server.events.snapshot()

    def _ep_session_open(self, body: Dict[str, object]) -> Dict[str, object]:
        del body
        try:
            opened = self.state.open_session()
        except ValueError as exc:
            raise RequestError(400, str(exc)) from exc
        self._log_event(f"session {opened['session']} opened")
        return opened

    def _ep_session_close(self, body: Dict[str, object]) -> Dict[str, object]:
        try:
            closed = self.state.close_session(body.get("session"))
        except SessionError as exc:
            raise RequestError(404, str(exc.args[0])) from exc
        except ValueError as exc:
            raise RequestError(400, str(exc)) from exc
        self._log_event(f"session {closed['session']} closed")
        return closed


_ROUTES = {
    "/api/v1/health": ("GET", InferenceHandler._ep_health),
    "/api/v1/infer": ("POST", InferenceHandler._ep_infer),
    "/api/v1/theta": {
        "GET": InferenceHandler._ep_theta_get,
        "PUT": InferenceHandler._ep_theta_put,
    },
    "/api/v1/metrics": ("GET", InferenceHandler._ep_metrics),
    "/api/v1/events": ("GET", InferenceHandler._ep_events),
    "/metrics.prom": ("GET", InferenceHandler._ep_metrics_prom),
    "/api/v1/session/open": ("POST", InferenceHandler._ep_session_open),
    "/api/v1/session/close": ("POST", InferenceHandler._ep_session_close),
}


class InferenceServer(JsonApiServer):
    """One warm memoized model served over HTTP.

    Args:
        state: the :class:`ServeState` to serve (replicas already built).
        host / port: bind address; port ``0`` picks an ephemeral port.
        token: shared secret; ``None`` serves unauthenticated (loopback
            testing).  Production deployments should always set one.
        quiet: suppress event log lines (tests).
        max_body_bytes: per-request body cap (decompressed size for
            gzip requests).
    """

    log_name = "serve"

    def __init__(
        self,
        state: ServeState,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        quiet: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        self.state = state
        # Share the state's registry and event log: HTTP request counts,
        # engine counters and server events land in one exposition.
        super().__init__(
            host,
            port,
            InferenceHandler,
            _ROUTES,
            token=token,
            quiet=quiet,
            max_body_bytes=max_body_bytes,
            registry=state.registry,
            events=state.events,
        )
