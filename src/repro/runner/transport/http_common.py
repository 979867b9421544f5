"""Shared stdlib HTTP plumbing for repro's JSON-over-HTTP services.

Two services speak the same dialect — the sweep coordinator
(:mod:`repro.runner.transport.server`) and the online inference front
end (:mod:`repro.serve.server`).  Everything they share lives here, so
the wire hardening is written (and tested) once:

- Bearer-token auth (constant-time compare) before any body is read.
- Capped body reads: ``Content-Length`` is required on POST/PUT, never
  trusted (400 on garbage, 411 when missing, 413 over the cap), and
  gzip request bodies are streamed through a decompressor that enforces
  the cap on the *decompressed* size — a tiny bomb cannot balloon in
  memory.
- One gzip rule for both directions: a body of :data:`GZIP_MIN_BYTES`
  or more is gzip-compressed.  The coordinator's client
  (``RemoteWorkQueue``) applies it to its request bodies; the server
  applies it to every reply for clients that sent ``Accept-Encoding:
  gzip`` (honouring ``q=0`` refusals).
- A flat route table (``{path: {method: handler}}``, with
  a ``(method, handler)`` tuple accepted as single-method shorthand),
  request counting on known routes only, and error replies that close
  the connection so unread bodies cannot desync a keep-alive socket.
- Request tracing: every request gets an ``X-Repro-Request-Id``
  (adopted from the client when well-formed, minted otherwise) which is
  echoed on every reply — success or error — so one id follows a
  request across tiers and into the event log.
- Per-server telemetry: a :class:`repro.obs.MetricsRegistry` backs the
  request counter (``request_counts`` stays a ``collections.Counter``
  view for existing callers) and a bounded
  :class:`repro.obs.EventLog` collects structured state-transition
  events for ``/api/v1/events``.
- HTTP/1.1 keep-alive that does not stall: every reply (status line,
  headers and body) goes out in one write on a ``TCP_NODELAY`` socket.
  As headers, then body, on a Nagle socket, the body waited ~40 ms for
  the client's delayed ACK.  A connection idle for
  :data:`IDLE_TIMEOUT_S` is closed, and :meth:`JsonApiServer.stop`
  shuts down every kept connection.
- One client, :class:`KeepAliveClient`: one kept connection per
  thread, with the request id and the gunzip handled once; each caller
  (``ServeClient``, ``RemoteWorkQueue``, ``repro top``) maps failures
  to its own errors.  A request whose kept connection the server
  closed, before any reply byte, is sent once more on a fresh one.

Handlers raise :class:`RequestError` to turn any condition into a clean
HTTP error; everything else becomes a 500 without killing the server.
Handlers normally return a JSON-able dict; returning a
:class:`RawReply` instead sends pre-rendered bytes under a custom
content type (how ``/metrics.prom`` serves Prometheus text through the
same auth/gzip path).
"""

from __future__ import annotations

import gzip
import hmac
import http.client
import json
import socket
import sys
import threading
import time
import urllib.parse
import zlib
from collections import Counter as PathCounts
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Set, Tuple, Union

from repro.obs import (
    EventLog,
    MetricsRegistry,
    REQUEST_ID_HEADER,
    ensure_request_id,
    new_request_id,
)

#: Requests larger than this are rejected outright (a result payload
#: for a bench-scale network is ~100 KB; 32 MB is absurd headroom).
#: For gzip requests the limit applies to the *decompressed* size.
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Bodies of this many bytes or more are gzip-compressed, in both
#: directions: requests always, replies when the client accepts gzip.
#: Below a packet's worth of JSON the compression round trip costs more
#: than the bytes it saves.
GZIP_MIN_BYTES = 1024

#: ``X-Repro-Protocol`` value: 2 = batch endpoints + gzip both ways.
PROTOCOL_VERSION = 2

#: Seconds a kept-alive connection may sit between requests (or stall
#: in any one read or write) before the server closes it: a client that
#: went away without closing must not hold a handler thread and a socket
#: for the server's lifetime.  The clients' next request reconnects
#: transparently.
IDLE_TIMEOUT_S = 30.0

#: A single route: either ``{method: handler}`` or the single-method
#: shorthand ``(method, handler)``.
Handler = Callable[
    ["JsonApiHandler", Dict[str, object]],
    Union[Dict[str, object], "RawReply"],
]
Route = Union[Tuple[str, Handler], Mapping[str, Handler]]


class RawReply:
    """A non-JSON response body a handler may return instead of a dict.

    Travels the same reply path as JSON (auth already passed, the gzip
    rule, request-id echo) but with the given content type —
    Prometheus exposition is the one current user.
    """

    __slots__ = ("body", "content_type")

    def __init__(
        self,
        body: Union[str, bytes],
        content_type: str = "text/plain; charset=utf-8",
    ):
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.content_type = content_type


def read_token_file(path: Union[str, Path]) -> str:
    """The shared secret stored at ``path`` (stripped; must be non-empty)."""
    token = Path(path).read_text(encoding="utf-8").strip()
    if not token:
        raise ValueError(f"token file {path} is empty")
    return token


class RequestError(Exception):
    """An HTTP error response to send instead of a result body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def gunzip_capped(raw: bytes, limit: int) -> bytes:
    """Decompress a gzip body, refusing to inflate past ``limit`` bytes.

    Streaming decompression with ``max_length`` means a compression
    bomb is cut off at the cap instead of ballooning in memory first.
    """
    decompressor = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        body = decompressor.decompress(raw, limit + 1)
    except zlib.error as exc:
        raise RequestError(400, f"request body is not valid gzip: {exc}") from exc
    if len(body) > limit or decompressor.unconsumed_tail:
        raise RequestError(413, f"decompressed body exceeds {limit} bytes")
    if not decompressor.eof:
        raise RequestError(400, "truncated gzip body")
    return body


class JsonApiHandler(BaseHTTPRequestHandler):
    """Routes one request through the owning :class:`JsonApiServer`."""

    server: "JsonApiServer"
    protocol_version = "HTTP/1.1"  # keep-alive: clients call in a loop
    disable_nagle_algorithm = True  # TCP_NODELAY: no reply waits on an ACK

    # -- plumbing -----------------------------------------------------------

    def setup(self) -> None:
        # The socket timeout bounds how long a kept connection may sit
        # idle in the request-line read (the stdlib loop then closes it).
        # Read per connection, not frozen into a class attribute.
        self.timeout = IDLE_TIMEOUT_S
        super().setup()

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    @staticmethod
    def _methods(route: Route) -> Mapping[str, Handler]:
        if isinstance(route, tuple):
            method, handler = route
            return {method: handler}
        return route

    def _dispatch(self, method: str) -> None:
        # Trace id first: even a 401 echoes the id, so a client can
        # correlate every reply — including failures — with its attempt.
        self.request_id = ensure_request_id(
            self.headers.get(REQUEST_ID_HEADER)
        )
        if self.path in self.server.routes:
            # Known endpoints only: the counter is keyed by client-sent
            # paths, and counting arbitrary scanned URLs would grow it
            # without bound over the server's lifetime.
            self.server.count_request(self.path)
        try:
            if not self._authorized():
                raise RequestError(401, "missing or bad bearer token")
            route = self.server.routes.get(self.path)
            if route is None:
                raise RequestError(404, f"unknown endpoint {self.path}")
            methods = self._methods(route)
            handler = methods.get(method)
            if handler is None:
                allowed = "/".join(sorted(methods))
                raise RequestError(405, f"{self.path} requires {allowed}")
            body = self._read_body() if method != "GET" else {}
            self._reply(200, handler(self, body))
        except RequestError as exc:
            self._reply(exc.status, {"error": str(exc)})
        except Exception as exc:  # never let a handler kill the server
            # The swallowed traceback still surfaces: every 500 lands in
            # the event ring with its request id, visible at /api/v1/events.
            self._event(
                "handler_error",
                path=self.path,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _authorized(self) -> bool:
        token = self.server.token
        if token is None:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header, f"Bearer {token}")

    def _read_body(self) -> Dict[str, object]:
        header = self.headers.get("Content-Length")
        if header is None:
            # Without a length we cannot know where this request's body
            # ends on a keep-alive socket; demand one instead of
            # guessing (411 Length Required).
            raise RequestError(411, "POST requires a Content-Length header")
        try:
            length = int(header)
        except (TypeError, ValueError):
            raise RequestError(
                400, f"invalid Content-Length {header!r}"
            ) from None
        if length < 0:
            # rfile.read(-1) would block reading until EOF — on a
            # keep-alive socket, forever.  Never trust the header.
            raise RequestError(400, f"invalid Content-Length {header!r}")
        if length > self.server.max_body_bytes:
            raise RequestError(413, f"body of {length} bytes is too large")
        raw = self.rfile.read(length) if length else b""
        encoding = self.headers.get("Content-Encoding", "identity").lower()
        if encoding == "gzip":
            raw = gunzip_capped(raw, self.server.max_body_bytes)
        elif encoding not in ("", "identity"):
            raise RequestError(415, f"unsupported Content-Encoding {encoding!r}")
        try:
            body = json.loads(raw or b"{}")
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RequestError(400, f"request body is not JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise RequestError(400, "request body must be a JSON object")
        return body

    def _accepts_gzip(self) -> bool:
        """Whether the client accepts a gzip reply (q=0 is a refusal)."""
        for token in self.headers.get("Accept-Encoding", "").split(","):
            coding, _, params = token.partition(";")
            if coding.strip().lower() != "gzip":
                continue
            name, _, value = params.partition("=")
            if name.strip().lower() == "q":
                try:
                    return float(value.strip()) > 0
                except ValueError:
                    return False
            return True
        return False

    def _reply(
        self, status: int, payload: Union[Dict[str, object], RawReply]
    ) -> None:
        if isinstance(payload, RawReply):
            data = payload.body
            content_type = payload.content_type
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        content_encoding = None
        if (
            status < 400
            and len(data) >= GZIP_MIN_BYTES
            and self._accepts_gzip()
        ):
            data = gzip.compress(data, compresslevel=5)
            content_encoding = "gzip"
        if status >= 400:
            # Error replies may be sent before the request body was
            # read (auth failures, unknown endpoints); on a keep-alive
            # connection the unread bytes would be parsed as the next
            # request line, desyncing the socket — close it instead.
            self.close_connection = True
        head = [
            f"{self.protocol_version} {status} {HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            f"X-Repro-Protocol: {PROTOCOL_VERSION}",
        ]
        request_id = getattr(self, "request_id", None)
        if request_id:
            head.append(f"{REQUEST_ID_HEADER}: {request_id}")
        if content_encoding:
            head.append(f"Content-Encoding: {content_encoding}")
        if self.close_connection:
            head.append("Connection: close")
        # One write for the whole reply: a body sent after its headers
        # can wait on the client's delayed ACK of the first write.
        self.wfile.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + data)

    def log_message(self, format: str, *args) -> None:
        # Per-request access logging is noise at client poll/request
        # rates; explicit event log lines are the useful signal.
        pass

    def _log_event(self, message: str) -> None:
        self.server.log(message)

    def _event(self, kind: str, **fields: object) -> None:
        """Record a structured event, stamped with this request's id."""
        self.server.events.emit(kind, request_id=self.request_id, **fields)


class JsonApiServer(ThreadingHTTPServer):
    """Threaded HTTP server shell: auth, routes, counters, lifecycle.

    Args:
        host / port: bind address; port ``0`` picks an ephemeral port
            (``server_port`` / ``url`` report the actual one).
        handler: the :class:`JsonApiHandler` subclass to dispatch to.
        routes: the route table, ``{path: route}``.
        token: shared secret; ``None`` serves unauthenticated (loopback
            testing).  Production deployments should always set one.
        quiet: suppress event log lines (tests).
        max_body_bytes: per-request body cap, applied to the
            decompressed size for gzip requests.
        registry: the metrics registry to record into; a fresh one is
            created when not supplied (the serving tier passes its
            ``ServeState``'s registry so engine and HTTP metrics share
            one exposition).
        events: the structured event log backing ``/api/v1/events``;
            fresh when not supplied, shareable for the same reason.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog.  socketserver's default of 5 overflows when a
    #: burst of clients connects at once (a loadgen starting its
    #: threads), and the kernel then drops each further SYN: that
    #: client stalls about a second for the retransmit.
    request_queue_size = socket.SOMAXCONN

    #: Prefix on event log lines; subclasses override.
    log_name = "api"

    def __init__(
        self,
        host: str,
        port: int,
        handler: type,
        routes: Mapping[str, Route],
        token: Optional[str] = None,
        quiet: bool = False,
        max_body_bytes: int = MAX_BODY_BYTES,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
    ):
        self.token = token
        self.quiet = quiet
        self.max_body_bytes = int(max_body_bytes)
        self.routes = routes
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events if events is not None else EventLog()
        self._request_counter = self.registry.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint path.",
            label_names=("path",),
        )
        # Monotonic: feeds uptime spans, which must not jump when NTP
        # steps the wall clock.
        self.started_at = time.monotonic()
        self._log_lock = threading.Lock()
        self._connections_lock = threading.Lock()
        #: Accepted connections whose handler thread has not finished.
        self._connections: Set[socket.socket] = set()  # guarded-by: _connections_lock
        super().__init__((host, port), handler)

    def process_request(self, request, client_address) -> None:
        # Registered on the serve-loop thread before the handler thread
        # starts, so stop() sees every connection accepted before its
        # shutdown() returned.
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def handle_error(self, request, client_address) -> None:
        # A connection reset or cut by its client (or by stop()) is no
        # fault of the server: skip the stdlib's traceback print for it.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def shutdown_request(self, request) -> None:
        # Forgotten under the lock before the socket closes: stop() never
        # shuts down a descriptor that was closed and reused meanwhile.
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def count_request(self, path: str) -> None:
        self._request_counter.inc(labels=(path,))

    @property
    def request_counts(self) -> PathCounts:
        """Requests served, by path — how the wire tests prove how many
        round trips an operation costs.  A snapshot view over the
        registry counter; missing paths read as ``0``."""
        return PathCounts(
            {path: int(count) for (path,), count in
             self._request_counter.series().items()}
        )

    @property
    def url(self) -> str:
        """The base URL clients should be pointed at."""
        host, port = self.server_address[:2]
        if host == "0.0.0.0":  # bound everywhere; loopback always works
            host = "127.0.0.1"
        return f"http://{host}:{port}"

    def log(self, message: str) -> None:
        if self.quiet:
            return
        with self._log_lock:
            print(f"[{self.log_name}] {message}", file=sys.stderr, flush=True)

    def serve_in_thread(self) -> threading.Thread:
        """Start serving on a daemon thread (tests, embedded use)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Shut down the serve loop, release the listening socket and
        close every kept-alive connection.

        A handler thread waiting for a client's next request wakes to
        end of file and exits; one still working on a request fails its
        reply.  Clients holding a connection see it closed and reconnect,
        to a restarted server or to a refused port.
        """
        self.shutdown()
        self.server_close()
        with self._connections_lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # the client closed it first


class CorruptReply(Exception):
    """A reply body that would not decode (bad gzip)."""


class HttpReply(NamedTuple):
    """One reply read off a :class:`KeepAliveClient` connection."""

    status: int
    reason: str
    #: The body as it came off the wire (gzip-compressed when
    #: ``encoding`` says so): its length is the received byte count.
    raw: bytes
    encoding: str
    #: The id the server echoed, else the one the request carried.
    request_id: str

    def body(self) -> bytes:
        """The body, gunzipped if it was sent gzip-encoded."""
        if self.encoding != "gzip":
            return self.raw
        try:
            return gzip.decompress(self.raw)
        except (OSError, EOFError) as exc:
            raise CorruptReply(f"undecodable gzip reply: {exc}") from exc

    def json(self) -> object:
        """The decoded JSON body (``ValueError`` or :class:`CorruptReply`
        when it is not JSON)."""
        return json.loads(self.body())

    def error_message(self) -> str:
        """An error reply's JSON ``error`` field, else its text, else the
        reason phrase."""
        try:
            payload = self.json()
        except (ValueError, CorruptReply):
            return self.raw.decode("utf-8", "replace") or self.reason
        message = payload.get("error") if isinstance(payload, dict) else None
        return str(message) if message else self.reason


class KeepAliveClient:
    """HTTP/1.1 to one JSON server, one kept-alive connection per thread.

    Threads never share a connection, so a thread never waits behind
    another's slow request, and replies cannot cross.  The connection of
    a thread that has ended is closed when another thread opens one.

    Each request carries ``Accept-Encoding: gzip``, the bearer token
    and an ``X-Repro-Request-Id`` (given, or minted here).  A request
    whose kept connection turns out to be closed by the server (its idle
    bound, :meth:`JsonApiServer.stop`, an earlier error reply), before a
    single reply byte was read, is sent once more on a fresh connection;
    a fresh connection's failure is raised.  Connection failures raise
    ``OSError`` or ``http.client.HTTPException``, and a reply of any
    status is returned: the caller maps both to its own errors.

    Args:
        url: server base URL, ``http://`` or ``https://``; request paths
            are appended to it.
        token: bearer token to send; ``None`` sends none.
        timeout: per-socket-operation timeout in seconds.
    """

    def __init__(self, url: str, token: Optional[str] = None, timeout: float = 30.0):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        self.url = url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self._prefix = parts.path.rstrip("/")
        self._address = (parts.hostname, parts.port)
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._lock = threading.Lock()
        self._connections: Dict[
            threading.Thread, http.client.HTTPConnection
        ] = {}  # guarded-by: _lock

    def _thread_connection(self) -> http.client.HTTPConnection:
        thread = threading.current_thread()
        with self._lock:
            connection = self._connections.get(thread)
            if connection is None:
                for ended in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(ended).close()
                connection = self._connection_class(*self._address, timeout=self.timeout)
                self._connections[thread] = connection
            return connection

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        request_id: Optional[str] = None,
    ) -> HttpReply:
        """Send one request on this thread's connection; read the reply."""
        request_id = request_id or new_request_id()
        sent = {
            "Accept": "application/json",
            "Accept-Encoding": "gzip",
            REQUEST_ID_HEADER: request_id,
        }
        if body is not None:
            sent["Content-Type"] = "application/json"
        if self.token is not None:
            sent["Authorization"] = f"Bearer {self.token}"
        sent.update(headers or {})
        connection = self._thread_connection()
        while True:
            reused = connection.sock is not None
            request_sent = False
            try:
                connection.request(method, self._prefix + path, body=body, headers=sent)
                request_sent = True
                response = connection.getresponse()
                raw = response.read()
            except BaseException as exc:
                connection.close()
                # No reply byte was read: the send failed, or the server
                # closed the connection before the status line.
                unanswered = isinstance(exc, http.client.RemoteDisconnected) or (
                    not request_sent and isinstance(exc, OSError)
                )
                if reused and unanswered:
                    continue  # once: the connection is fresh now
                raise
            return HttpReply(
                status=response.status,
                reason=response.reason,
                raw=raw,
                encoding=(response.getheader("Content-Encoding") or "").lower(),
                request_id=response.getheader(REQUEST_ID_HEADER) or request_id,
            )

    def close(self) -> None:
        """Close every thread's connection (a later request reopens)."""
        with self._lock:
            for connection in self._connections.values():
                connection.close()
            self._connections.clear()
