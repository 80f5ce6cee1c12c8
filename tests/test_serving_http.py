"""HTTP front-end tests: endpoints, request IDs, rate limiting, errors.

Each test class gets a real ``ServingServer`` on an ephemeral port and
talks to it over loopback HTTP with urllib — the same path a production
client takes, including the JSON envelopes and headers.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import KhatriRaoKMeans, summarize
from repro.datasets import make_blobs
from repro.serving import ModelRegistry, create_server
from repro.serving.http import (
    STATUS_BY_EXCEPTION,
    EndpointNotFoundError,
    _Handler,
)
from repro.exceptions import (
    BatcherStoppedError,
    ModelNotFoundError,
    RateLimitError,
    SummaryFormatError,
    ValidationError,
)


@pytest.fixture(scope="module")
def data_and_summary():
    X, _ = make_blobs(300, n_clusters=9, random_state=0)
    model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
    return X, summarize(model, metadata={"dataset": "blobs"})


@pytest.fixture
def server(data_and_summary):
    _, summary = data_and_summary
    registry = ModelRegistry()
    registry.register("blobs", summary)
    server = create_server(
        registry, window_s=0.002, log_requests=False
    ).start()
    yield server
    server.stop()


def get(server, path, headers=None):
    req = urllib.request.Request(server.url + path, headers=headers or {})
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def post(server, path, payload, headers=None):
    req = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json", **(headers or {})},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, dict(resp.headers), json.load(resp)


def post_error(server, path, payload=None, method="POST"):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(server.url + path, data=data, method=method)
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(req, timeout=10)
    err = excinfo.value
    return err.code, dict(err.headers), json.load(err)


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["models"] == 1
        assert body["batcher_running"] is True
        assert body["uptime_seconds"] >= 0

    def test_list_and_describe_models(self, server):
        _, _, listing = get(server, "/v1/models")
        assert [m["name"] for m in listing["models"]] == ["blobs"]
        _, _, info = get(server, "/v1/models/blobs")
        assert info["n_clusters"] == 9
        assert info["dtype"] == "float32"
        assert info["metadata"]["dataset"] == "blobs"

    def test_assign_matches_kernel(self, server, data_and_summary):
        X, _ = data_and_summary
        status, _, body = post(
            server, "/v1/models/blobs/assign", {"rows": X[:8].tolist()}
        )
        assert status == 200
        expected = server.registry.get("blobs").assign(X[:8])
        assert body["labels"] == expected.tolist()
        assert body["model"] == "blobs"

    def test_inertia(self, server, data_and_summary):
        X, _ = data_and_summary
        _, _, body = post(
            server, "/v1/models/blobs/inertia", {"rows": X[:8].tolist()}
        )
        assert body["rows"] == 8
        assert body["inertia"] == pytest.approx(
            server.registry.get("blobs").inertia(X[:8])
        )

    def test_refine(self, server, data_and_summary):
        X, _ = data_and_summary
        _, _, body = post(
            server,
            "/v1/models/blobs/refine",
            {"rows": X.tolist(), "n_steps": 2},
        )
        assert body["refined"] is True
        assert body["n_steps"] == 2
        assert body["rows"] == X.shape[0]

    def test_metrics_counts_traffic(self, server, data_and_summary):
        X, _ = data_and_summary
        post(server, "/v1/models/blobs/assign", {"rows": X[:4].tolist()})
        _, _, body = get(server, "/metrics")
        assert body["counters"]["requests_total"] >= 1
        assert body["counters"]["batches_total"] >= 1
        assert "assign" in body["latency_seconds"]
        assert "http" in body["latency_seconds"]
        for field in ("p50", "p95", "p99", "count"):
            assert field in body["latency_seconds"]["http"]


class TestRequestIDs:
    def test_generated_id_in_body_and_header(self, server):
        _, headers, body = get(server, "/healthz")
        assert body["request_id"].startswith("req-")
        assert headers["X-Request-ID"] == body["request_id"]

    def test_client_id_echoed(self, server):
        _, headers, body = get(
            server, "/healthz", headers={"X-Request-ID": "trace-42"}
        )
        assert body["request_id"] == "trace-42"
        assert headers["X-Request-ID"] == "trace-42"

    def test_error_responses_carry_id(self, server):
        status, headers, body = post_error(
            server, "/v1/models/ghost/assign", {"rows": [[0.0, 0.0]]}
        )
        assert status == 404
        assert headers["X-Request-ID"] == body["request_id"]


class TestErrorMapping:
    def test_unknown_model_404(self, server):
        status, _, body = post_error(
            server, "/v1/models/ghost/assign", {"rows": [[0.0, 0.0]]}
        )
        assert status == 404
        assert body["error"]["type"] == "ModelNotFoundError"
        assert "ghost" in body["error"]["message"]

    def test_unknown_endpoint_404(self, server):
        status, _, body = post_error(server, "/v1/frobnicate", {"x": 1})
        assert status == 404
        assert body["error"]["type"] == "EndpointNotFoundError"

    def test_validation_error_400(self, server):
        status, _, body = post_error(
            server, "/v1/models/blobs/assign", {"rows": [[1.0, 2.0, 3.0]]}
        )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "features" in body["error"]["message"]

    def test_missing_rows_400(self, server):
        status, _, body = post_error(
            server, "/v1/models/blobs/assign", {"data": []}
        )
        assert status == 400
        assert "rows" in body["error"]["message"]

    @pytest.mark.parametrize("n_steps", [0, -1, 1.5, True])
    def test_bad_n_steps_400(self, server, data_and_summary, n_steps):
        X, _ = data_and_summary
        status, _, body = post_error(
            server, "/v1/models/blobs/refine",
            {"rows": X[:4].tolist(), "n_steps": n_steps},
        )
        assert status == 400
        assert body["error"]["type"] == "ValidationError"
        assert "n_steps" in body["error"]["message"]

    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/models/blobs/assign",
            data=b"{not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def test_get_on_scoring_endpoint_404(self, server):
        status, _, _ = post_error(
            server, "/v1/models/blobs/assign", method="GET"
        )
        assert status == 404

    def test_status_table_is_ordered_most_specific_first(self):
        # Every subclass appears before its base so isinstance dispatch
        # can walk the table linearly.
        types = [t for t, _ in STATUS_BY_EXCEPTION]
        for i, exc_type in enumerate(types):
            for later in types[i + 1:]:
                assert not issubclass(later, exc_type) or later is exc_type, (
                    f"{later.__name__} is shadowed by {exc_type.__name__}"
                )

    def test_status_codes(self):
        mapping = dict(STATUS_BY_EXCEPTION)
        assert mapping[ModelNotFoundError] == 404
        assert mapping[EndpointNotFoundError] == 404
        assert mapping[RateLimitError] == 429
        assert mapping[BatcherStoppedError] == 503
        assert mapping[ValidationError] == 400
        # SummaryFormatError rides the ValidationError row.
        assert issubclass(SummaryFormatError, ValidationError)


class TestRateLimiting:
    def test_bucket_exhaustion_gives_429_with_retry_after(self, data_and_summary):
        _, summary = data_and_summary
        registry = ModelRegistry()
        registry.register("blobs", summary)
        server = create_server(
            registry, rate_limit=1e-3, burst=2, log_requests=False
        ).start()
        try:
            rows = {"rows": [[0.0, 0.0]]}
            post(server, "/v1/models/blobs/assign", rows)
            post(server, "/v1/models/blobs/assign", rows)
            status, headers, body = post_error(
                server, "/v1/models/blobs/assign", rows
            )
            assert status == 429
            assert body["error"]["type"] == "RateLimitError"
            assert float(headers["Retry-After"]) > 0
            # Probes stay unthrottled.
            assert get(server, "/healthz")[0] == 200
            assert get(server, "/metrics")[0] == 200
            assert server.metrics.counter("rate_limited_total") == 1
        finally:
            server.stop()


class TestLifecycle:
    def test_port_zero_binds_ephemeral(self, server):
        assert server.server_address[1] > 0
        assert str(server.server_address[1]) in server.url

    def test_stop_is_idempotent_for_batcher(self, data_and_summary):
        _, summary = data_and_summary
        registry = ModelRegistry()
        registry.register("m", summary)
        server = create_server(registry, log_requests=False).start()
        server.stop()
        assert server.batcher.running is False


class _RecordingHandler(_Handler):
    """Records, per connection, the server-side socket's ``TCP_NODELAY``
    and every write the handler makes to it."""

    connections: list = []

    def setup(self):
        super().setup()
        nodelay = self.connection.getsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY
        )
        writes = []
        self.connections.append((nodelay, writes))
        real_write = self.wfile.write

        def write(data):
            writes.append(bytes(data))
            return real_write(data)

        self.wfile.write = write


@pytest.fixture
def recording(monkeypatch):
    connections = []
    monkeypatch.setattr(_RecordingHandler, "connections", connections)
    return connections


def _recording_server(data_and_summary, **kwargs):
    _, summary = data_and_summary
    registry = ModelRegistry()
    registry.register("blobs", summary)
    server = create_server(registry, log_requests=False, **kwargs)
    server.RequestHandlerClass = _RecordingHandler
    return server.start()


class TestTransport:
    """Nagle-free transport: ``TCP_NODELAY`` on the accepted socket and
    one write per response, so a keep-alive connection never holds a
    body segment back waiting for the client's delayed ACK."""

    def test_accepted_socket_has_nodelay(self, data_and_summary, recording):
        server = _recording_server(data_and_summary)
        try:
            get(server, "/healthz")
        finally:
            server.stop()
        assert [nodelay for nodelay, _ in recording] == [1]

    def _assert_single_writes(self, recording, statuses):
        assert len(recording) == len(statuses)
        for (_, writes), status in zip(recording, statuses):
            assert len(writes) == 1, writes
            head, _, body = writes[0].partition(b"\r\n\r\n")
            assert head.startswith(f"HTTP/1.1 {status} ".encode())
            assert f"Content-Length: {len(body)}".encode() in head
            json.loads(body)

    def test_success_and_error_responses_are_one_write(
        self, data_and_summary, recording
    ):
        X, _ = data_and_summary
        server = _recording_server(data_and_summary)
        try:
            get(server, "/healthz")
            post(server, "/v1/models/blobs/assign", {"rows": X[:4].tolist()})
            post_error(server, "/v1/models/ghost/assign", {"rows": [[0.0, 0.0]]})
            post_error(server, "/v1/models/blobs/assign", {"rows": [[1.0]]})
        finally:
            server.stop()
        self._assert_single_writes(recording, [200, 200, 404, 400])

    def test_retry_after_responses_are_one_write(
        self, data_and_summary, recording
    ):
        X, _ = data_and_summary
        rows = {"rows": X[:4].tolist()}
        server = _recording_server(
            data_and_summary, rate_limit=1e-3, burst=1, breaker_failures=1
        )
        try:
            server.batcher.breakers.record_failure(("blobs", "assign"))
            status, headers, _ = post_error(
                server, "/v1/models/blobs/assign", rows
            )
            assert status == 503 and float(headers["Retry-After"]) > 0
            status, headers, _ = post_error(
                server, "/v1/models/blobs/assign", rows
            )
            assert status == 429 and float(headers["Retry-After"]) > 0
        finally:
            server.stop()
        self._assert_single_writes(recording, [503, 429])
        for _, writes in recording:
            assert b"Retry-After: " in writes[0]


def test_default_window_is_zero(data_and_summary):
    _, summary = data_and_summary
    registry = ModelRegistry()
    registry.register("blobs", summary)
    server = create_server(registry, log_requests=False)
    try:
        assert server.batcher.window_s == 0.0
    finally:
        server.stop()
