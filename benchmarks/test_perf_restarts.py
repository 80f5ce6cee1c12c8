"""Parallel restart throughput (`.benchmarks/parallel_restarts.json`).

Certifies the ``n_jobs`` restart sweep on real compute: ``n_jobs=1`` and
``n_jobs=2`` must select a bit-identical model.  That is the assert.

Throughput is recorded, not asserted: real ``KhatriRaoKMeans`` sweeps
of ``n_init`` restarts sequentially (``n_jobs=None``) and at
``n_jobs`` 1 and 2, each with the row-pool width, the number of row
blocks, the OpenBLAS thread count and the core count.  The data spans
several row blocks, so the row pool is live and the restart threads
compete with its workers and their BLAS thread budget — the contended
case.  Wall-clock ratios depend on the machine and its load, so no
floor on them is part of the test.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from conftest import print_header, print_rows, scaled
from repro import KhatriRaoKMeans
from repro.datasets import make_blobs
from repro.runtime import DEFAULT_BLOCK_ROWS
from repro.runtime.parallel import blas_threads, row_blocks

N_RESTARTS = 8
#: ``n_jobs`` of each leg; ``None`` is the sequential sweep.
JOBS = (None, 1, 2)


def _fit_kr(n_jobs, X):
    """Time one sweep; returns ``(seconds, model)``."""
    start = time.perf_counter()
    model = KhatriRaoKMeans(
        (3, 3), n_init=N_RESTARTS, max_iter=50, random_state=0,
        n_jobs=n_jobs,
    ).fit(X)
    return time.perf_counter() - start, model


def test_parallel_restart_throughput():
    print_header("Parallel n_init restarts on a live row pool")

    # At least two row blocks at any scale, so the row pool runs threaded.
    n = max(int(12000 * scaled(1.0)), 2 * DEFAULT_BLOCK_ROWS)
    X, _ = make_blobs(n, n_features=8, n_clusters=9, cluster_std=0.6,
                      random_state=1)
    n_blocks = len(row_blocks(X.shape[0]))
    assert n_blocks >= 2
    legs = []
    models = {}
    for n_jobs in JOBS:
        seconds, model = _fit_kr(n_jobs, X)
        models[n_jobs] = model
        legs.append({
            "n_jobs": n_jobs,
            "n_threads": model.n_threads.n_threads,
            "row_blocks": n_blocks,
            "blas_threads": blas_threads(),
            "seconds": round(seconds, 4),
        })

    # ---- correctness gate: the worker count is invisible in the result
    serial_model, parallel_model = models[1], models[2]
    assert parallel_model.inertia_ == serial_model.inertia_
    assert parallel_model.n_iter_ == serial_model.n_iter_
    assert np.array_equal(parallel_model.labels_, serial_model.labels_)
    for a, b in zip(parallel_model.protocentroids_,
                    serial_model.protocentroids_):
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))

    sequential = legs[0]["seconds"]
    for leg in legs:
        leg["speedup_vs_sequential"] = round(sequential / leg["seconds"], 3)
    rows = [
        f"{str(leg['n_jobs']):>8}{leg['n_threads']:>11}"
        f"{str(leg['blas_threads']):>12}"
        f"{leg['seconds']:>11.3f}s{leg['speedup_vs_sequential']:>15.2f}x"
        for leg in legs
    ]
    print_rows(
        f"{'n_jobs':>8}{'n_threads':>11}{'BLAS thr.':>12}{'fit':>12}"
        f"{'vs sequential':>15}",
        rows,
    )
    print(f"n={X.shape[0]} ({n_blocks} row blocks), "
          f"cores={len(os.sched_getaffinity(0))}")

    record = {
        "n_restarts": N_RESTARTS,
        "cores": len(os.sched_getaffinity(0)),
        "bit_identical_selection": True,
        "real_compute": {
            "n_samples": int(X.shape[0]),
            "n_features": int(X.shape[1]),
            "cardinalities": [3, 3],
            "row_blocks": n_blocks,
            "legs": legs,
            "asserted": False,
        },
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "parallel_restarts.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
