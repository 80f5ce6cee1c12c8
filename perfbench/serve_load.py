"""The serving workload: open-loop HTTP load against ``repro.cli serve``.

The fixture is an (8, 8, 8) sum-grid model with m = 64, fitted, exported
with ``summarize`` and saved.  A subprocess serves it at the CLI's default
knobs.  One asyncio thread sends 32-row ``assign`` requests over two
persistent HTTP/1.1 connections on a fixed-interval schedule (open loop):
each request is due at ``t0 + i / rate`` whatever the server is doing,
and its latency runs from that due time, so a stalled connection charges
its wait to every request queued behind it.  The offered rate climbs a
ladder and stops at the first rung that misses the service level.

Every response is checked against the in-process
``summary.astype("float32").assign(rows)``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .spans import Recorder
from .workloads import (
    SETUP_REPEATS, Gate, Outcome, instance_seed, quiet_convergence,
)

SERVE_PARAMS = dict(
    cardinalities=[8, 8, 8], n_features=64, train_rows=4000, grid_scale=4.0,
    noise=0.3, rows_per_request=32, connections=2,
    ladder_rps=[25, 50, 100, 200, 400, 800], requests_per_rung=200,
    slo_p95_ms=50.0, min_achieved_share=0.95, server_knobs="CLI defaults",
)
ROUTE = "/v1/models/bench/assign"
READY_TIMEOUT_S = 60.0
RUNG_TIMEOUT_S = 60.0


def build_fixture(s: int, workdir: Path):
    """Fit, export and save the served model; returns the float32 summary
    the server will hold and the training rows requests are drawn from."""
    from repro import KhatriRaoKMeans, summarize

    p = SERVE_PARAMS
    rng = np.random.default_rng(s)
    thetas = [rng.normal(scale=p["grid_scale"], size=(h, p["n_features"]))
              for h in p["cardinalities"]]
    flat = rng.integers(int(np.prod(p["cardinalities"])), size=p["train_rows"])
    parts = np.unravel_index(flat, p["cardinalities"])
    X = sum(theta[idx] for theta, idx in zip(thetas, parts))
    X = X + rng.normal(scale=p["noise"], size=X.shape)
    model = KhatriRaoKMeans(
        p["cardinalities"], init="kr-k-means++", n_init=1, max_iter=10,
        random_state=s,
    ).fit(X)
    summary = summarize(model)
    summary.save(workdir / "bench.npz")
    return summary.astype("float32"), X


def make_requests(s: int, summary, X) -> List[tuple]:
    """``requests_per_rung`` distinct request bodies with expected labels."""
    p = SERVE_PARAMS
    rng = np.random.default_rng(s + 1)
    out = []
    for _ in range(p["requests_per_rung"]):
        rows = X[rng.integers(X.shape[0], size=p["rows_per_request"])]
        rows = rows.astype(np.float32)
        body = json.dumps({"rows": rows.tolist()}).encode()
        head = (f"POST {ROUTE} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        out.append((head + body, summary.assign(rows).tolist()))
    return out


class Server:
    """One ``repro.cli serve`` subprocess."""

    def __init__(self, root: Path, model_path: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", f"bench={model_path}", "--port", "0", "--quiet"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        self.peak_rss_mb: Optional[float] = None
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = ""
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line or line.startswith("serving "):
                break
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError("server did not come up")
        host_port = line.rsplit("http://", 1)[1].strip().rstrip("/")
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def metrics(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/metrics")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM, wait, and keep the process's peak RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            status, usage = _wait4(self.proc.pid, 30.0)
        except TimeoutError:
            self.proc.kill()
            status, usage = _wait4(self.proc.pid, None)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def _wait4(pid: int, timeout: Optional[float]):
    """Reap ``pid``; returns its wait status and resource usage."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        got, status, usage = os.wait4(pid, 0 if deadline is None else os.WNOHANG)
        if got == pid:
            return status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(pid)
        time.sleep(0.02)


async def _read_response(reader):
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _rung(host, port, requests, rate, recorder=None) -> dict:
    """Offer ``len(requests)`` requests at ``rate`` per second."""
    p = SERVE_PARAMS
    n = len(requests)
    queues = [asyncio.Queue() for _ in range(p["connections"])]
    latencies = [float("nan")] * n
    ok = [False] * n
    lag_max = 0.0
    last_done = 0.0

    async def connection(queue):
        nonlocal last_done
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                i, due, handed = item
                payload, expected = requests[i]
                try:
                    writer.write(payload)
                    await writer.drain()
                    status, body = await _read_response(reader)
                except (OSError, asyncio.IncompleteReadError, ValueError):
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
                    continue
                done = time.perf_counter()
                last_done = max(last_done, done)
                latencies[i] = done - due
                ok[i] = status == 200 and json.loads(body)["labels"] == expected
                if recorder is not None:
                    parent = recorder.add("serving.client.request", due, done)
                    recorder.add("serving.client.connection_wait", due, handed, parent)
        finally:
            writer.close()

    async def generator():
        nonlocal lag_max
        t0 = time.perf_counter() + 0.05
        for i in range(n):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = time.perf_counter()
            lag_max = max(lag_max, now - due)
            queues[i % len(queues)].put_nowait((i, due, now))
        for queue in queues:
            queue.put_nowait(None)
        return t0

    workers = [asyncio.ensure_future(connection(q)) for q in queues]
    t0 = await generator()
    try:
        await asyncio.wait_for(asyncio.gather(*workers), RUNG_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    done_lat = np.asarray([x for x in latencies if x == x]) * 1e3
    failed = n - sum(ok)
    p50, p95 = (np.percentile(done_lat, [50, 95]) if done_lat.size
                else (float("inf"), float("inf")))
    achieved = n / (last_done - t0) if last_done > t0 else 0.0
    return {
        "offered_rps": rate,
        "achieved_rps": achieved,
        "p50_ms": float(p50),
        "p95_ms": float(p95),
        "failed": failed,
        "generator_lag_max_ms": lag_max * 1e3,
        "passed": bool(failed == 0 and p95 <= p["slo_p95_ms"]
                       and achieved >= p["min_achieved_share"] * rate),
    }


def _run_ladder(server: Server, requests, trace: bool):
    """The base rung (twice in a traced run: untraced, then traced), the
    server's ``/metrics`` after it, then the rest of the ladder up to the
    first failing rung."""
    p = SERVE_PARAMS
    recorder = Recorder() if trace else None
    base_metrics = {}

    async def ladder():
        rate = p["ladder_rps"][0]
        rungs = [await _rung(server.host, server.port, requests, rate)]
        if trace:
            rungs.append(await _rung(server.host, server.port, requests, rate,
                                     recorder))
        base_metrics.update(server.metrics())  # nothing else is in flight
        if rungs[-1]["passed"]:
            for rate in p["ladder_rps"][1:]:
                rungs.append(await _rung(server.host, server.port, requests, rate))
                if not rungs[-1]["passed"]:
                    break
        return rungs

    return asyncio.run(ladder()), base_metrics, recorder


def serve_http_open_loop(seed: int, seconds: int, trace: bool) -> Outcome:
    quiet_convergence()
    p = SERVE_PARAMS
    root = Path(__file__).resolve().parents[1]
    gate = Gate()
    s = instance_seed(seed, 0)
    setup_times: List[float] = []
    server: Optional[Server] = None
    with tempfile.TemporaryDirectory(dir=os.environ["PERFBENCH_WORKDIR"]) as workdir:
        workdir = Path(workdir)
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                start = time.perf_counter()
                summary, X = build_fixture(s, workdir)
                server = Server(root, workdir / "bench.npz")
                setup_times.append(time.perf_counter() - start)
            requests = make_requests(s, summary, X)
            rungs, server_metrics, recorder = _run_ladder(server, requests, trace)
        finally:
            if server is not None:
                server.stop()
    for rung in rungs:
        gate.attempted += len(requests)
        gate.failed += rung["failed"]
        if rung["failed"]:
            gate.messages.append(
                f"serving: {rung['failed']} requests failed at {rung['offered_rps']} rps")
    passing = [r for r in rungs if r["passed"]]
    top = passing[-1] if passing else None
    detail = {"params": SERVE_PARAMS, "rungs": rungs,
              "max_rate_rps": top["offered_rps"] if top else 0}
    if trace:
        metrics = _serving_layers(rungs, server_metrics, top)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": rungs[0]["p50_ms"],
            "rows_per_s": p["rows_per_request"] * top["achieved_rps"] if top else 0.0,
            "peak_rss_mb": server.peak_rss_mb,
        }
    return Outcome(gate, metrics, detail, recorder)


def _serving_layers(rungs, server_metrics: dict, top) -> Dict[str, float]:
    """Per-layer serving metrics: the server's own ``/metrics`` (both base
    rungs) against the traced base rung as the client saw it."""
    from .layers import PER_LAYER_UNITS

    untraced, traced = rungs[0], rungs[1]
    latency = server_metrics["latency_seconds"]
    counters = server_metrics["counters"]
    server_p50 = latency["http"]["p50"] * 1e3
    exec_p50 = latency["batch_exec"]["p50"] * 1e3
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    out.update({
        "serving.http.server_p50_ms": server_p50,
        "serving.batcher.batch_exec_p50_ms": exec_p50,
        "serving.batcher.queue_wait_p50_ms": latency["assign"]["p50"] * 1e3 - exec_p50,
        "serving.batcher.mean_batch_requests": (
            counters["batched_requests_total"] / counters["batches_total"]),
        "serving.transport_gap_p50_ms": traced["p50_ms"] - server_p50,
        "serving.generator_lag_max_ms": max(r["generator_lag_max_ms"] for r in rungs),
        "serving.client.latency_p95_ms": traced["p95_ms"],
        "serving.max_rate_rps": top["offered_rps"] if top else 0.0,
        # The server accounts for this share of what the client observes.
        "trace.coverage": server_p50 / traced["p50_ms"],
        "trace.overhead": traced["p50_ms"] / untraced["p50_ms"] - 1.0,
    })
    return out
