"""Stdlib retry client for the serving HTTP API.

The server's failure model is only useful if clients speak it:
retriable rejections (429 rate limit, 503 breaker/backpressure/draining)
carry ``Retry-After``, deadline expiry is a typed 504, and every
response echoes ``X-Request-ID``.  :class:`ServingClient` closes the
loop — urllib + exponential backoff with seeded jitter, honoring the
server's ``Retry-After`` hint, reusing one request ID across a logical
request's retries so the server-side access log tells the whole story.

No dependency beyond the standard library (the client ships with the
package for smoke harnesses and deploy hooks, mirroring the stdlib-only
server).

>>> client = ServingClient("http://127.0.0.1:8080")   # doctest: +SKIP
>>> client.assign("blobs", [[0.1, 0.2]])              # doctest: +SKIP
{'model': 'blobs', 'labels': [3], 'request_id': 'cli-...'}
"""

from __future__ import annotations

import json
import random
import secrets
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional, Sequence, Tuple

from .._validation import check_positive_int
from ..exceptions import ServingError

__all__ = ["ServingClient", "ServingClientError"]

#: Statuses worth retrying: rate limit, shed/breaker/draining, deadline,
#: and gateway-ish transient codes a proxy in front of the server may add.
RETRY_STATUSES = (429, 502, 503, 504)


class ServingClientError(ServingError):
    """A request failed definitively (non-retriable, or retries exhausted).

    Attributes
    ----------
    status : int or None
        HTTP status of the last response; ``None`` for connection errors.
    error_type : str or None
        The server's typed error name (``error.type`` in the body).
    request_id : str
        The ``X-Request-ID`` the attempts carried — the handle for
        correlating with the server's access log.
    attempts : int
        How many attempts were made before giving up.
    body : dict
        The parsed JSON body of the final response (empty for
        connection-level failures).
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        error_type: Optional[str] = None,
        request_id: str = "",
        attempts: int = 1,
        body: Optional[dict] = None,
    ):
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.request_id = request_id
        self.attempts = attempts
        self.body = body if body is not None else {}


class ServingClient:
    """A retrying JSON client for one serving base URL.

    Parameters
    ----------
    base_url : str
        E.g. ``"http://127.0.0.1:8080"`` (no trailing slash needed).
    timeout_s : float
        Per-attempt socket timeout.
    max_retries : int
        Retries *after* the first attempt (default 4 → up to 5 attempts).
    backoff_s, backoff_cap_s : float
        Exponential backoff base and cap: attempt ``i`` waits
        ``min(cap, backoff * 2**i)`` scaled by jitter in ``[0.5, 1.0)``.
        A server ``Retry-After`` hint raises the wait to at least that.
    retry_statuses : sequence of int
        Statuses that trigger a retry (default :data:`RETRY_STATUSES`).
        Connection-level failures always retry.
    seed : int, optional
        Seeds the jitter stream — deterministic backoff for tests.
    sleep, transport : callables
        Injection points for tests: ``sleep(seconds)`` and
        ``transport(method, url, body, headers, timeout) ->
        (status, headers_dict, raw_bytes)``.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout_s: float = 10.0,
        max_retries: int = 4,
        backoff_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        retry_statuses: Sequence[int] = RETRY_STATUSES,
        seed: Optional[int] = None,
        sleep: Callable[[float], None] = time.sleep,
        transport: Optional[Callable] = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.retry_statuses = frozenset(int(s) for s in retry_statuses)
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._transport = transport if transport is not None else _urllib_transport

    # -------------------------------------------------------------- backoff
    def _backoff(self, attempt: int, retry_after: Optional[float]) -> float:
        delay = min(self.backoff_cap_s, self.backoff_s * (2.0 ** attempt))
        delay *= 0.5 + self._rng.random() / 2.0
        if retry_after is not None and retry_after > delay:
            delay = retry_after
        return delay

    @staticmethod
    def _retry_after(headers: Dict[str, str], body: Dict) -> Optional[float]:
        raw = headers.get("Retry-After")
        if raw is not None:
            try:
                return float(raw)
            except ValueError:
                pass
        hint = body.get("error", {}).get("retry_after") if body else None
        return None if hint is None else float(hint)

    # -------------------------------------------------------------- request
    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        headers: Optional[Dict[str, str]] = None,
        request_id: Optional[str] = None,
    ) -> dict:
        """One logical request, retried per policy; returns the JSON body.

        The same ``X-Request-ID`` rides every retry of this logical
        request, so the server log shows the retries as one story.
        """
        rid = request_id if request_id else f"cli-{secrets.token_hex(6)}"
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        send_headers = {"X-Request-ID": rid, **(headers or {})}
        if body is not None:
            send_headers.setdefault("Content-Type", "application/json")
        url = self.base_url + path
        attempt = 0
        while True:
            try:
                status, resp_headers, raw = self._transport(
                    method, url, body, send_headers, self.timeout_s
                )
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                if attempt >= self.max_retries:
                    raise ServingClientError(
                        f"{method} {path} failed after {attempt + 1} "
                        f"attempt(s): {exc}",
                        request_id=rid,
                        attempts=attempt + 1,
                    ) from exc
                self._sleep(self._backoff(attempt, None))
                attempt += 1
                continue
            try:
                parsed = json.loads(raw) if raw else {}
            except json.JSONDecodeError:
                parsed = {}
            if status < 400:
                return parsed
            if status in self.retry_statuses and attempt < self.max_retries:
                self._sleep(
                    self._backoff(attempt, self._retry_after(resp_headers, parsed))
                )
                attempt += 1
                continue
            error = parsed.get("error", {}) if parsed else {}
            raise ServingClientError(
                f"{method} {path} -> {status} "
                f"{error.get('type', 'HTTPError')}: "
                f"{error.get('message', 'no error body')}",
                status=status,
                error_type=error.get("type"),
                request_id=rid,
                attempts=attempt + 1,
                body=parsed,
            )

    # --------------------------------------------------------- conveniences
    def get(self, path: str, **kwargs) -> dict:
        return self.request("GET", path, **kwargs)

    def post(self, path: str, payload: dict, **kwargs) -> dict:
        return self.request("POST", path, payload, **kwargs)

    def healthz(self) -> dict:
        """Health state; a draining server's 503 is returned, not raised."""
        try:
            # Never retry a health probe — its job is the current truth.
            return ServingClient(
                self.base_url,
                timeout_s=self.timeout_s,
                max_retries=0,
                transport=self._transport,
                sleep=self._sleep,
            ).get("/healthz")
        except ServingClientError as exc:
            # A draining server answers /healthz with 503 *and* the full
            # health body — that body is the answer, not an error.
            if exc.status == 503 and "status" in exc.body:
                return exc.body
            raise

    def metrics(self) -> dict:
        return self.get("/metrics")

    def models(self) -> list:
        return self.get("/v1/models")["models"]

    def describe(self, model: str) -> dict:
        return self.get(f"/v1/models/{model}")

    def _score_headers(self, deadline_ms: Optional[float]) -> Optional[Dict]:
        if deadline_ms is None:
            return None
        return {"X-Deadline-Ms": f"{float(deadline_ms):g}"}

    def assign(self, model: str, rows, *, deadline_ms: Optional[float] = None,
               request_id: Optional[str] = None) -> dict:
        return self.post(
            f"/v1/models/{model}/assign", {"rows": _tolist(rows)},
            headers=self._score_headers(deadline_ms), request_id=request_id,
        )

    def inertia(self, model: str, rows, *, deadline_ms: Optional[float] = None,
                request_id: Optional[str] = None) -> dict:
        return self.post(
            f"/v1/models/{model}/inertia", {"rows": _tolist(rows)},
            headers=self._score_headers(deadline_ms), request_id=request_id,
        )

    def refine(self, model: str, rows, *, n_steps: int = 1,
               sample_weight=None, deadline_ms: Optional[float] = None,
               request_id: Optional[str] = None) -> dict:
        payload = {
            "rows": _tolist(rows),
            "n_steps": check_positive_int(n_steps, "n_steps"),
        }
        if sample_weight is not None:
            payload["sample_weight"] = _tolist(sample_weight)
        return self.post(
            f"/v1/models/{model}/refine", payload,
            headers=self._score_headers(deadline_ms), request_id=request_id,
        )


def _tolist(rows):
    """Accept lists or numpy arrays without importing numpy here."""
    return rows.tolist() if hasattr(rows, "tolist") else rows


def _urllib_transport(
    method: str,
    url: str,
    body: Optional[bytes],
    headers: Dict[str, str],
    timeout: float,
) -> Tuple[int, Dict[str, str], bytes]:
    """The default transport: one urllib round trip.

    HTTP error statuses are *returned* (the retry loop owns the policy);
    connection-level failures propagate as ``URLError``/``OSError``.
    """
    req = urllib.request.Request(url, data=body, headers=headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as err:
        with err:
            return err.code, dict(err.headers), err.read()
