"""Serving-layer load generator: micro-batched vs per-request throughput.

The serving claim (ROADMAP, ISSUE 6): at serving shapes — many concurrent
requests of a few rows each — one coalesced factored kernel call beats
per-request calls by well over the per-call arithmetic difference,
because per-call fixed work (validation, Gram construction against the
protocentroid sets, Python/BLAS dispatch) dominates when requests are
small.  This module measures that win on the real
:class:`~repro.serving.batcher.MicroBatcher` code path and records it to
``.benchmarks/serving_throughput.json``.

Two measurements, both recorded and neither asserted (wall-clock numbers
on shared runners are noise, not a gate):

* **Coalescing measurement.**  ``REQUESTS`` requests of
  ``ROWS_PER_REQUEST`` float32 rows are pushed through a synchronous
  batcher (``start=False`` + :meth:`drain`) — the exact production
  coalescing/validation/scatter code with no thread-scheduling noise —
  against the per-request path (a batch-size-1 drain per request, i.e.
  the same machinery denied any coalescing).  Best of ``REPEATS``.
* **Threaded end-to-end measurement.**  A worker-thread batcher under
  ``N_CLIENTS`` concurrent submitters, with per-request submit-to-result
  latency percentiles, once with a 2 ms window and once at the default
  (work-conserving, window 0).

What is asserted is deterministic: every request's batched labels equal
its own single-request call (same dtype, same kernel — the batcher
concatenates rows, and row-independent scoring makes the per-row results
identical), and the batched drain issues ``ceil(n / 64)`` kernel calls
where the per-request path issues ``n``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from pathlib import Path

import numpy as np
from conftest import print_header, scaled

from repro import KhatriRaoKMeans, summarize
from repro.serving import MicroBatcher, ModelRegistry
from repro.serving.metrics import ServingMetrics, percentiles

CARDINALITIES = (8, 8, 8)
N_FEATURES = 64
REQUESTS = 600
ROWS_PER_REQUEST = 8
REPEATS = 3
N_CLIENTS = 8
MAX_BATCH_REQUESTS = 64


def _fixture():
    """A fitted float32 serving model plus the request stream."""
    rng = np.random.default_rng(0)
    thetas = [rng.normal(scale=4.0, size=(h, N_FEATURES)) for h in CARDINALITIES]
    flat = rng.integers(int(np.prod(CARDINALITIES)), size=4000)
    tuple_idx = np.unravel_index(flat, CARDINALITIES)
    X_train = sum(t[i] for t, i in zip(thetas, tuple_idx))
    X_train = X_train + rng.normal(scale=0.3, size=X_train.shape)

    model = KhatriRaoKMeans(
        CARDINALITIES, init="kr-k-means++", n_init=1, max_iter=10,
        random_state=0,
    ).fit(X_train)
    registry = ModelRegistry()  # float32 serving dtype
    registry.register("bench", summarize(model))

    n_requests = max(50, int(REQUESTS * scaled(1.0)))
    requests = [
        np.ascontiguousarray(
            X_train[rng.integers(X_train.shape[0], size=ROWS_PER_REQUEST)],
            dtype=np.float32,
        )
        for _ in range(n_requests)
    ]
    return registry, requests


def _drain_all(registry, requests, *, singleton: bool):
    """Push every request through a synchronous batcher.

    Returns ``(seconds, tickets, batcher)``; the batcher has its own
    metrics, so ``batches_total`` counts this drain's kernel calls.
    ``singleton=True`` is the per-request baseline: the same submit/drain
    machinery but drained after every submit, so each kernel call carries
    exactly one request (batch size 1).
    """
    batcher = MicroBatcher(
        registry, start=False, metrics=ServingMetrics(),
        max_batch_requests=MAX_BATCH_REQUESTS, max_batch_rows=1 << 20,
    )
    tickets = []
    start = time.perf_counter()
    if singleton:
        for req in requests:
            tickets.append(batcher.submit("assign", "bench", req))
            batcher.drain()
    else:
        for req in requests:
            tickets.append(batcher.submit("assign", "bench", req))
        batcher.drain()
    elapsed = time.perf_counter() - start
    return elapsed, tickets, batcher


def _threaded_run(registry, requests, **knobs):
    """N_CLIENTS submitter threads against a live worker batcher.

    Returns (wall_seconds, per-request submit→result latencies).
    """
    batcher = MicroBatcher(
        registry, max_batch_requests=MAX_BATCH_REQUESTS,
        max_batch_rows=1 << 20, **knobs,
    )
    latencies = [None] * len(requests)
    lock = threading.Lock()
    indices = iter(range(len(requests)))

    def client():
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            submitted = time.perf_counter()
            ticket = batcher.submit("assign", "bench", requests[i])
            ticket.result(timeout=30.0)
            latencies[i] = time.perf_counter() - submitted

    threads = [threading.Thread(target=client) for _ in range(N_CLIENTS)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    batcher.stop()
    return wall, np.asarray(latencies, dtype=np.float64)


def test_serving_throughput():
    registry, requests = _fixture()
    served = registry.get("bench")
    n = len(requests)
    total_rows = n * ROWS_PER_REQUEST

    # ---- the asserted part: batched ≡ per-request, in fewer kernel calls.
    _, batched_tickets, batched = _drain_all(
        registry, requests, singleton=False
    )
    _, _, singleton = _drain_all(registry, requests, singleton=True)
    for ticket, req in zip(batched_tickets, requests):
        np.testing.assert_array_equal(
            ticket.result()["labels"], served.assign(req)
        )
    kernel_calls = {
        "batched": batched.metrics.counter("batches_total"),
        "singleton": singleton.metrics.counter("batches_total"),
    }
    assert kernel_calls == {
        "batched": math.ceil(n / MAX_BATCH_REQUESTS), "singleton": n,
    }

    # ---- coalescing measurement (recorded only).
    timings = {
        mode: min(
            _drain_all(registry, requests, singleton=mode == "singleton")[0]
            for _ in range(REPEATS)
        )
        for mode in ("batched", "singleton")
    }
    speedup = timings["singleton"] / timings["batched"]
    qps = {
        "batched": n / timings["batched"],
        "singleton": n / timings["singleton"],
    }

    # Per-request latency in the synchronous frame: the singleton path
    # pays its own kernel call; a coalesced request's latency is the
    # shared batch call (every member waits for the whole batch).
    batcher_probe = MicroBatcher(
        registry, start=False, max_batch_requests=MAX_BATCH_REQUESTS,
        max_batch_rows=1 << 20,
    )
    singleton_lat, batched_lat = [], []
    for req in requests:
        t0 = time.perf_counter()
        batcher_probe.submit("assign", "bench", req)
        batcher_probe.drain()
        singleton_lat.append(time.perf_counter() - t0)
    for chunk_start in range(0, n, MAX_BATCH_REQUESTS):
        chunk = requests[chunk_start:chunk_start + MAX_BATCH_REQUESTS]
        t0 = time.perf_counter()
        for req in chunk:
            batcher_probe.submit("assign", "bench", req)
        batcher_probe.drain()
        batched_lat.extend([time.perf_counter() - t0] * len(chunk))

    # ---- threaded end-to-end measurement (recorded only): a 2 ms window
    # and the default work-conserving batcher.
    threaded = {
        "window_2ms": _threaded_run(registry, requests, window_s=0.002),
        "default_window": _threaded_run(registry, requests),
    }

    print_header(
        f"Serving throughput: {n} requests x {ROWS_PER_REQUEST} rows, "
        f"m={N_FEATURES}, cardinalities={CARDINALITIES} "
        f"(k={int(np.prod(CARDINALITIES))}), float32 serving dtype"
    )
    print(f"{'singleton (batch=1)':<24}{timings['singleton'] * 1e3:>10.1f} ms"
          f"{qps['singleton']:>12.0f} req/s")
    print(f"{'micro-batched':<24}{timings['batched'] * 1e3:>10.1f} ms"
          f"{qps['batched']:>12.0f} req/s")
    print(f"{'speedup':<24}{speedup:>10.2f}x")
    latencies = {"singleton": singleton_lat, "batched": batched_lat}
    for leg, (_, lat) in threaded.items():
        latencies[f"threaded_{leg}"] = lat
    for name, lat in latencies.items():
        p = percentiles(lat)
        print(f"{name + ' latency':<34}p50 {p['p50'] * 1e3:7.3f} ms   "
              f"p99 {p['p99'] * 1e3:7.3f} ms")

    record = {
        "benchmark": "serving_throughput",
        "n_requests": n,
        "rows_per_request": ROWS_PER_REQUEST,
        "total_rows": total_rows,
        "n_features": N_FEATURES,
        "cardinalities": list(CARDINALITIES),
        "n_clusters": int(np.prod(CARDINALITIES)),
        "serving_dtype": "float32",
        "max_batch_requests": MAX_BATCH_REQUESTS,
        "kernel_calls": kernel_calls,
        "timings_seconds": timings,
        "throughput_qps": qps,
        "speedup_batched_vs_singleton": speedup,
        "latency_seconds": {
            name: percentiles(lat) for name, lat in latencies.items()
        },
        "threaded": {
            leg: {
                "n_clients": N_CLIENTS,
                "window_s": 0.002 if leg == "window_2ms" else 0.0,
                "wall_seconds": wall,
                "qps": n / wall,
            }
            for leg, (wall, _) in threaded.items()
        },
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "serving_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
