"""Stdlib HTTP front end for the serving subsystem.

Built on :mod:`http.server`'s ``ThreadingHTTPServer`` — one OS thread per
connection, no dependency beyond the standard library, which keeps
``install_requires`` at numpy+scipy.  Handler threads never touch a model
directly: every scoring request goes through the
:class:`~repro.serving.batcher.MicroBatcher`, whose single worker thread
is the subsystem's concurrency control (and the source of the batching
throughput win).

Endpoints (all JSON; see ``docs/serving.md`` for the full schemas):

====================================  ======================================
``GET  /healthz``                     liveness + model count + uptime
``GET  /metrics``                     :meth:`ServingMetrics.snapshot`
``GET  /v1/models``                   descriptions of every model
``GET  /v1/models/<name>``            one model's description
``POST /v1/models/<name>/assign``     ``{"rows": [[...], ...]}`` → labels
``POST /v1/models/<name>/inertia``    rows → summed squared distance
``POST /v1/models/<name>/refine``     rows (+ ``n_steps``,
                                      ``sample_weight``) → refit stats
====================================  ======================================

Cross-cutting behavior:

* **Request IDs** — every response carries ``request_id`` in the body and
  an ``X-Request-ID`` header; a client-supplied ``X-Request-ID`` is
  echoed, otherwise one is generated.  The access log quotes it.
* **Rate limiting** — an optional token bucket guards the ``/v1/`` tree
  (``/healthz`` and ``/metrics`` stay unthrottled for probes); rejected
  requests get 429 with ``Retry-After``.
* **Error mapping** — exceptions map to status codes by type
  (:data:`STATUS_BY_EXCEPTION`); the body is
  ``{"error": {"type": ..., "message": ...}, "request_id": ...}``.
  Anything not in the :mod:`repro.exceptions` hierarchy is a 500 with the
  message suppressed (internal details never leak to clients).
* **Failure model** — scoring requests may carry an ``X-Deadline-Ms``
  header (expiry → typed 504, and the batcher sheds the dead work);
  open circuit breakers and backpressure shed with 503 + ``Retry-After``;
  a watchdog restarts a dead batcher worker and ``/healthz`` reports the
  ``ok``/``degraded``/``draining`` state machine (503 while draining).
  See ``docs/serving.md`` §"Operating under failure".
* **Transport** — every accepted connection has ``TCP_NODELAY`` set and
  every JSON response (errors included) goes out in one write, so a
  keep-alive connection never waits on Nagle plus a delayed ACK.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
import secrets
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..exceptions import (
    BatcherStoppedError,
    CircuitOpenError,
    DeadlineExceededError,
    ModelNotFoundError,
    OverloadedError,
    RateLimitError,
    RetriableServingError,
    ServingError,
    ValidationError,
    WorkerCrashedError,
)
from .batcher import MicroBatcher
from .metrics import ServingMetrics
from .ratelimit import TokenBucket
from .registry import ModelRegistry
from .resilience import HealthTracker, Watchdog

__all__ = [
    "EndpointNotFoundError",
    "ServingServer",
    "create_server",
    "STATUS_BY_EXCEPTION",
]

logger = logging.getLogger("repro.serving")


class EndpointNotFoundError(ServingError):
    """No route matches the request's method and path (HTTP 404)."""


#: Exception-type → HTTP status mapping, most-specific first (the handler
#: walks this in order with ``isinstance``).  Every retriable condition
#: (open breaker, shed load, crashed worker, draining server) is a typed
#: 503 and the deadline family is 504 — clients can key retry policy off
#: the status class without parsing messages.
STATUS_BY_EXCEPTION: Tuple[Tuple[type, int], ...] = (
    (ModelNotFoundError, 404),
    (EndpointNotFoundError, 404),
    (RateLimitError, 429),
    (DeadlineExceededError, 504),
    (CircuitOpenError, 503),
    (OverloadedError, 503),
    (RetriableServingError, 503),
    (WorkerCrashedError, 503),
    (BatcherStoppedError, 503),
    (ValidationError, 400),       # includes SummaryFormatError
    (ServingError, 500),
)

_MODEL_ROUTE = re.compile(r"^/v1/models/(?P<name>[^/]+)(?:/(?P<op>[^/]+))?$")


def _status_for(exc: BaseException) -> int:
    for exc_type, status in STATUS_BY_EXCEPTION:
        if isinstance(exc, exc_type):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serving"
    # TCP_NODELAY on every accepted connection: responses are small and
    # latency-bound, so there is nothing for Nagle to coalesce.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------- plumbing
    @property
    def _metrics(self) -> ServingMetrics:
        return self.server.metrics

    def _request_id(self) -> str:
        supplied = self.headers.get("X-Request-ID")
        if supplied:
            return supplied[:128]
        return (
            f"req-{next(self.server._request_counter):06d}-"
            f"{secrets.token_hex(4)}"
        )

    def _send_json(self, status: int, payload: dict, request_id: str) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-ID", request_id)
        # 429/503 rejections carry the server's retry hint as a header
        # too, so dumb clients (and proxies) can honor it without parsing
        # the body.
        if status in (429, 503) and "retry_after" in payload.get("error", {}):
            self.send_header(
                "Retry-After", f"{payload['error']['retry_after']:.3f}"
            )
        # Status line, headers and body leave in one write.  Split into
        # two sends, the small body segment waits on Nagle for the
        # client's delayed ACK of the headers: tens of milliseconds per
        # request on a keep-alive connection.  (HTTP/0.9 has no headers.)
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def _send_error_json(
        self, exc: BaseException, request_id: str
    ) -> int:
        status = _status_for(exc)
        error = {"type": type(exc).__name__, "message": str(exc)}
        if status == 500 and not isinstance(exc, ServingError):
            # Never leak internals of unexpected failures to clients.
            error = {"type": "InternalError", "message": "internal server error"}
            logger.exception("unhandled error serving %s", self.path)
        retry_after = getattr(exc, "retry_after", None)
        if retry_after is not None:
            error["retry_after"] = float(retry_after)
        self._metrics.increment("errors_total")
        self._metrics.increment(f"errors_{status}_total")
        self._send_json(status, {"error": error, "request_id": request_id}, request_id)
        return status

    def log_message(self, fmt, *args):  # quiet the default stderr spam
        if self.server.log_requests:
            logger.info(fmt, *args)

    def _access_log(self, method, status, request_id, elapsed, rows=None):
        if self.server.log_requests:
            logger.info(
                "%s %s -> %d rid=%s rows=%s %.2fms",
                method, self.path, status, request_id,
                "-" if rows is None else rows, elapsed * 1e3,
            )

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.server.max_body_bytes:
            raise ValidationError(
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit"
            )
        if length == 0:
            raise ValidationError("request body is required and must be JSON")
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        return body

    def _rate_limit(self) -> None:
        bucket = self.server.bucket
        if bucket is not None:
            try:
                bucket.acquire_or_raise()
            except RateLimitError:
                self._metrics.increment("rate_limited_total")
                raise

    # --------------------------------------------------------------- routes
    def do_GET(self):
        self._handle("GET")

    def do_POST(self):
        self._handle("POST")

    def _handle(self, method: str) -> None:
        started = time.perf_counter()
        request_id = self._request_id()
        self._metrics.increment("requests_total")
        rows = None
        status = 500
        try:
            status, payload, rows = self._route(method)
            payload["request_id"] = request_id
            self._send_json(status, payload, request_id)
        except (BrokenPipeError, ConnectionResetError):
            return
        except Exception as exc:
            status = self._send_error_json(exc, request_id)
        finally:
            elapsed = time.perf_counter() - started
            self._metrics.record_latency("http", elapsed)
            self._access_log(method, status, request_id, elapsed, rows)

    def _deadline(self) -> Optional[float]:
        """Absolute monotonic deadline for this request, or ``None``.

        ``X-Deadline-Ms`` (client budget) and the server-side default
        (``request_deadline_ms``) compose by taking the *tighter* of the
        two — a client may shorten its budget, never extend the server's.
        """
        header = self.headers.get("X-Deadline-Ms")
        default_ms = self.server.request_deadline_ms
        if header is None:
            ms = default_ms
        else:
            try:
                ms = float(header)
            except ValueError:
                raise ValidationError(
                    f"X-Deadline-Ms must be a number of milliseconds, "
                    f"got {header!r}"
                )
            if not ms > 0:
                raise ValidationError(
                    f"X-Deadline-Ms must be > 0, got {header!r}"
                )
            if default_ms is not None:
                ms = min(ms, default_ms)
        if ms is None:
            return None
        return time.monotonic() + ms / 1e3

    def _route(self, method: str):
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            health = self.server.health.snapshot()
            payload = {
                "status": health["state"],
                "models": len(self.server.registry),
                "batcher_running": self.server.batcher.running,
                "worker_restarts": self.server.metrics.counter(
                    "worker_restarts_total"
                ),
                "open_breakers": (
                    []
                    if self.server.batcher.breakers is None
                    else self.server.batcher.breakers.open_keys()
                ),
                "last_incident": health["last_incident"],
                "uptime_seconds": round(
                    time.monotonic() - self.server.started_at, 3
                ),
            }
            # A draining server tells its load balancer to stop sending
            # traffic; ok and degraded both keep admitting requests.
            return (503 if health["state"] == "draining" else 200), payload, None
        if method == "GET" and path == "/metrics":
            return 200, self._metrics.snapshot(), None
        if path.startswith("/v1/"):
            self._rate_limit()
        if method == "GET" and path == "/v1/models":
            return 200, {"models": self.server.registry.describe_all()}, None
        match = _MODEL_ROUTE.match(path)
        if match is None:
            raise EndpointNotFoundError(f"no such endpoint: {method} {path}")
        name, op = match.group("name"), match.group("op")
        if op is None:
            if method != "GET":
                raise EndpointNotFoundError(f"no such endpoint: {method} {path}")
            return 200, self.server.registry.describe(name), None
        if method != "POST" or op not in ("assign", "inertia", "refine"):
            raise EndpointNotFoundError(f"no such endpoint: {method} {path}")
        return self._score(name, op)

    def _score(self, name: str, op: str):
        body = self._read_body()
        if "rows" not in body:
            raise ValidationError('request body must contain "rows"')
        kwargs = {}
        if op == "refine":
            kwargs["n_steps"] = body.get("n_steps", 1)
            if body.get("sample_weight") is not None:
                kwargs["sample_weight"] = body["sample_weight"]
        ticket = self.server.batcher.submit(
            op, name, body["rows"], deadline=self._deadline(), **kwargs
        )
        # The ticket enforces its own deadline inside result(); the
        # server-wide request_timeout is the backstop when no deadline is
        # set.  Either expiry raises DeadlineExceededError (504) and
        # cancels the ticket so the batcher sheds the dead work.
        result = ticket.result(timeout=self.server.request_timeout)
        payload = {"model": name}
        if op == "assign":
            payload["labels"] = result["labels"].tolist()
        else:
            payload.update(result)
        return 200, payload, ticket.rows


class ServingServer(ThreadingHTTPServer):
    """The serving process: registry + micro-batcher + HTTP front end.

    Construct via :func:`create_server`, then either :meth:`start` (serve
    on a background thread — tests, notebooks, the README quickstart) or
    :meth:`serve_forever` on the current thread (the CLI).  Always pair
    with :meth:`stop`.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        registry: ModelRegistry,
        *,
        batcher: Optional[MicroBatcher] = None,
        window_s: float = 0.0,
        max_batch_requests: int = 256,
        max_batch_rows: int = 8192,
        max_queue_requests: int = 1024,
        max_pending_rows: int = 131072,
        breaker_failures: Optional[int] = 5,
        breaker_reset_s: float = 30.0,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        request_timeout: float = 30.0,
        request_deadline_ms: Optional[float] = None,
        drain_timeout_s: float = 10.0,
        watchdog_interval_s: float = 0.5,
        hang_timeout_s: Optional[float] = None,
        health_recovery_s: float = 5.0,
        max_body_bytes: int = 16 * 1024 * 1024,
        log_requests: bool = True,
    ):
        self.registry = registry
        self.metrics = registry.metrics
        self.batcher = batcher if batcher is not None else MicroBatcher(
            registry,
            window_s=window_s,
            max_batch_requests=max_batch_requests,
            max_batch_rows=max_batch_rows,
            max_queue_requests=max_queue_requests,
            max_pending_rows=max_pending_rows,
            breaker_failures=breaker_failures,
            breaker_reset_s=breaker_reset_s,
            metrics=self.metrics,
            start=False,
        )
        self.bucket = (
            TokenBucket(rate_limit, burst) if rate_limit is not None else None
        )
        self.request_timeout = float(request_timeout)
        self.request_deadline_ms = (
            None if request_deadline_ms is None else float(request_deadline_ms)
        )
        self.drain_timeout_s = float(drain_timeout_s)
        # A hung-kernel verdict defaults to the request timeout: by then
        # every waiter has already given up, so failing the in-flight
        # tickets loses nothing.
        self.watchdog = Watchdog(
            self.batcher,
            interval_s=watchdog_interval_s,
            hang_timeout_s=(
                self.request_timeout if hang_timeout_s is None else hang_timeout_s
            ),
            health=HealthTracker(recovery_s=health_recovery_s),
            metrics=self.metrics,
        )
        self.health = self.watchdog.health
        self.max_body_bytes = int(max_body_bytes)
        self.log_requests = bool(log_requests)
        self.started_at = time.monotonic()
        self._request_counter = itertools.count(1)
        self._serve_thread: Optional[threading.Thread] = None
        self._loop_entered = False
        self._handler_threads: list = []
        self._handler_lock = threading.Lock()
        super().__init__(address, _Handler)

    def process_request(self, request, client_address):
        # ThreadingMixIn only tracks (and ``server_close``-joins)
        # *non-daemon* handler threads.  We want daemon handlers — a
        # wedged connection must never pin the process open — but the
        # graceful drain still has to wait for live ones, or interpreter
        # teardown kills them mid-response.  So track them ourselves and
        # join with a deadline in :meth:`stop`.
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name="repro-serving-handler",
            daemon=True,
        )
        with self._handler_lock:
            self._handler_threads = [
                t for t in self._handler_threads if t.is_alive()
            ]
            self._handler_threads.append(thread)
        thread.start()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServingServer":
        """Serve on a daemon thread; returns ``self`` for chaining."""
        if not self.batcher.running:
            self.batcher.start()
        self.watchdog.start()
        self.started_at = time.monotonic()
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serving-http", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self, poll_interval: float = 0.25) -> None:
        if not self.batcher.running:
            self.batcher.start()
        self.watchdog.start()
        self._loop_entered = True
        super().serve_forever(poll_interval)

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then close.

        Order matters: health flips to ``draining`` first (``/healthz``
        goes 503 so load balancers steer away), the accept loop stops,
        then the batcher flushes its backlog within ``drain_timeout_s`` —
        in-flight HTTP handlers blocked on tickets complete (or get typed
        503s past the deadline) — then the still-live handler threads are
        joined with the remaining drain budget (they are daemons; without
        this join, interpreter teardown would kill them mid-response) and
        the sockets are closed.

        Safe on a server that never served: ``BaseServer.shutdown`` blocks
        forever unless ``serve_forever`` ran, so it is skipped then.
        """
        deadline = time.monotonic() + self.drain_timeout_s
        self.health.start_draining()
        self.watchdog.stop()
        if self._loop_entered:
            self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join(10.0)
            self._serve_thread = None
        self.batcher.stop(flush=True, timeout=self.drain_timeout_s)
        with self._handler_lock:
            handlers = [t for t in self._handler_threads if t.is_alive()]
            self._handler_threads = []
        for thread in handlers:
            thread.join(max(deadline - time.monotonic(), 0.5))
        self.server_close()

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def create_server(
    registry: ModelRegistry,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs,
) -> ServingServer:
    """Bind a :class:`ServingServer` (``port=0`` picks a free port).

    Keyword arguments are forwarded to :class:`ServingServer`: batching
    knobs (``window_s``, ``max_batch_requests``, ``max_batch_rows``),
    resilience knobs (``max_queue_requests``/``max_pending_rows``
    backpressure, ``breaker_failures``/``breaker_reset_s`` circuit
    breakers, ``request_deadline_ms`` default deadline,
    ``drain_timeout_s`` graceful-shutdown budget,
    ``watchdog_interval_s``/``hang_timeout_s``/``health_recovery_s``
    self-healing), ``rate_limit``/``burst`` (requests per second;
    ``None`` disables), ``request_timeout``, ``max_body_bytes`` and
    ``log_requests``.
    """
    return ServingServer((host, port), registry, **kwargs)
