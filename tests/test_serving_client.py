"""Retry-client tests: backoff policy, Retry-After, request-ID threading.

The policy tests run against a scripted in-memory transport (no sockets,
no sleeping — the injectable ``sleep`` records what the client *would*
wait), so every retry decision is deterministic.  One integration test at
the end speaks to a real :class:`ServingServer` over loopback.
"""

import json
import urllib.error

import numpy as np
import pytest

from repro import KhatriRaoKMeans, summarize
from repro.datasets import make_blobs
from repro.exceptions import ValidationError
from repro.serving import ModelRegistry, ServingClient, ServingClientError, create_server


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


OK = (200, {}, _body({"ok": True}))
OVERLOADED = (
    503,
    {"Retry-After": "0.500"},
    _body({"error": {"type": "OverloadedError", "message": "shed",
                     "retry_after": 0.5}}),
)
BAD_REQUEST = (
    400, {}, _body({"error": {"type": "ValidationError", "message": "bad rows"}})
)


class ScriptedTransport:
    """Returns (or raises) the scripted responses in order, recording calls."""

    def __init__(self, *script):
        self.script = list(script)
        self.calls = []

    def __call__(self, method, url, body, headers, timeout):
        self.calls.append((method, url, body, dict(headers)))
        action = self.script.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


class RecordingSleep:
    def __init__(self):
        self.delays = []

    def __call__(self, seconds):
        self.delays.append(seconds)


def make_client(transport, **kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("backoff_s", 0.01)
    return ServingClient(
        "http://test", transport=transport, sleep=RecordingSleep(), **kwargs
    )


class TestRetryPolicy:
    def test_retries_503_and_honors_retry_after_as_a_floor(self):
        transport = ScriptedTransport(OVERLOADED, OK)
        client = make_client(transport)
        assert client.get("/v1/models") == {"ok": True}
        assert len(transport.calls) == 2
        # The jittered exponential wait is tiny (base 10 ms); the server's
        # 0.5 s hint must have raised it.
        assert client._sleep.delays == [pytest.approx(0.5)]

    def test_connection_errors_retry_too(self):
        transport = ScriptedTransport(urllib.error.URLError("refused"), OK)
        client = make_client(transport)
        assert client.get("/healthz") == {"ok": True}
        assert len(transport.calls) == 2

    def test_exhausted_retries_raise_with_the_last_response(self):
        transport = ScriptedTransport(OVERLOADED, OVERLOADED)
        client = make_client(transport, max_retries=1)
        with pytest.raises(ServingClientError) as excinfo:
            client.get("/v1/models")
        err = excinfo.value
        assert err.status == 503
        assert err.error_type == "OverloadedError"
        assert err.attempts == 2
        assert err.body["error"]["retry_after"] == 0.5

    def test_non_retriable_400_raises_immediately(self):
        transport = ScriptedTransport(BAD_REQUEST)
        client = make_client(transport)
        with pytest.raises(ServingClientError) as excinfo:
            client.post("/v1/models/m/assign", {"rows": []})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ValidationError"
        assert excinfo.value.attempts == 1
        assert len(transport.calls) == 1
        assert client._sleep.delays == []

    def test_max_retries_zero_never_sleeps(self):
        transport = ScriptedTransport(OVERLOADED)
        client = make_client(transport, max_retries=0)
        with pytest.raises(ServingClientError):
            client.get("/v1/models")
        assert client._sleep.delays == []

    def test_backoff_is_seeded_exponential_with_jitter(self):
        a = ServingClient("http://test", seed=5, backoff_s=0.1, backoff_cap_s=1.0)
        b = ServingClient("http://test", seed=5, backoff_s=0.1, backoff_cap_s=1.0)
        waits_a = [a._backoff(i, None) for i in range(5)]
        waits_b = [b._backoff(i, None) for i in range(5)]
        assert waits_a == waits_b  # same seed, same jitter stream
        for attempt, wait in enumerate(waits_a):
            ceiling = min(1.0, 0.1 * 2 ** attempt)
            assert ceiling * 0.5 <= wait < ceiling
        # The cap binds from attempt 4 on (0.1 * 2**4 = 1.6 > 1.0).
        assert waits_a[4] < 1.0


class TestProtocolHeaders:
    def test_one_request_id_rides_every_retry(self):
        transport = ScriptedTransport(OVERLOADED, urllib.error.URLError("x"), OK)
        client = make_client(transport)
        client.get("/v1/models")
        rids = [headers["X-Request-ID"] for *_, headers in transport.calls]
        assert len(rids) == 3
        assert len(set(rids)) == 1, "retries must share one request ID"
        assert rids[0].startswith("cli-")

    def test_caller_supplied_request_id_wins(self):
        transport = ScriptedTransport(OK)
        make_client(transport).get("/healthz", request_id="my-trace-42")
        assert transport.calls[0][3]["X-Request-ID"] == "my-trace-42"

    def test_deadline_ms_becomes_the_header(self):
        transport = ScriptedTransport(OK)
        make_client(transport).assign("m", [[0.0, 1.0]], deadline_ms=250)
        method, url, body, headers = transport.calls[0]
        assert method == "POST"
        assert url.endswith("/v1/models/m/assign")
        assert headers["X-Deadline-Ms"] == "250"
        assert json.loads(body) == {"rows": [[0.0, 1.0]]}

    @pytest.mark.parametrize("n_steps", [2.9, True, 0, "2"])
    def test_refine_rejects_bad_n_steps_before_sending(self, n_steps):
        # Truncating with int() would send 2.9 as 2 steps and True as 1.
        transport = ScriptedTransport(OK)
        with pytest.raises(ValidationError, match="n_steps"):
            make_client(transport).refine("m", [[0.0, 1.0]], n_steps=n_steps)
        assert transport.calls == []

    def test_refine_sends_numpy_integer_n_steps(self):
        transport = ScriptedTransport(OK)
        make_client(transport).refine("m", [[0.0, 1.0]], n_steps=np.int64(3))
        assert json.loads(transport.calls[0][2])["n_steps"] == 3

    def test_healthz_returns_a_draining_503_body_instead_of_raising(self):
        draining = (
            503, {}, _body({"status": "draining", "models": 1})
        )
        client = make_client(ScriptedTransport(draining))
        assert client.healthz()["status"] == "draining"

    def test_healthz_never_retries(self):
        transport = ScriptedTransport(urllib.error.URLError("down"))
        client = make_client(transport)
        with pytest.raises(ServingClientError):
            client.healthz()
        assert len(transport.calls) == 1


class TestAgainstARealServer:
    def test_round_trip(self):
        X, _ = make_blobs(200, n_clusters=9, random_state=0)
        model = KhatriRaoKMeans((3, 3), n_init=2, random_state=0).fit(X)
        registry = ModelRegistry()
        registry.register("blobs", summarize(model))
        server = create_server(
            registry, window_s=0.002, log_requests=False
        ).start()
        try:
            client = ServingClient(server.url, seed=0)
            assert client.healthz()["status"] == "ok"
            assert [m["name"] for m in client.models()] == ["blobs"]
            result = client.assign(
                "blobs", X[:8], deadline_ms=10_000, request_id="it-1"
            )
            assert result["request_id"] == "it-1"
            expected = registry.get("blobs").assign(X[:8])
            assert result["labels"] == expected.tolist()
            with pytest.raises(ServingClientError) as excinfo:
                client.assign("nope", X[:2])
            assert excinfo.value.status == 404
            assert excinfo.value.error_type == "ModelNotFoundError"
        finally:
            server.stop()
