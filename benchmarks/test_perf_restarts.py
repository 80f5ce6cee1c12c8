"""Parallel restart throughput (`.benchmarks/parallel_restarts.json`).

Certifies the parallel ``n_init`` leg: the supervised executor must
select a bit-identical model at every worker count, and hand back
restart outcomes in seed order whatever order they finished in.  Those
are the asserts.

Throughput is recorded, not asserted: real ``KhatriRaoKMeans`` sweeps
of ``n_init`` restarts at several ``n_jobs``, each with the row-pool
width, the number of row blocks, the OpenBLAS thread count and the core
count.  The data is one row block, so the row pool runs inline and the
restarts run under the process's own BLAS thread count.
Wall-clock ratios depend on the machine and its load, so no floor on
them is part of the test.
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
from repro.runtime import ExecutorConfig, run_restarts
from repro.runtime.parallel import blas_threads, row_blocks

N_RESTARTS = 8
#: ``n_jobs`` of the real-compute leg; ``None`` is the sequential sweep.
JOBS = (None, 1, 2, 4)


def _compute_restart(gen: np.random.Generator, seed_index: int):
    A = gen.normal(size=(256, 64))
    return float(np.sum((A @ A.T) ** 2)), seed_index


def _fit_kr(n_jobs, X):
    """Time one sweep; returns ``(seconds, model)``."""
    start = time.perf_counter()
    model = KhatriRaoKMeans(
        (3, 3), n_init=N_RESTARTS, max_iter=50, random_state=0,
        n_jobs=n_jobs,
    ).fit(X)
    return time.perf_counter() - start, model


def test_parallel_restart_throughput():
    print_header(
        "Parallel n_init restarts: supervised executor throughput"
    )

    # ---- correctness gate: the sweep is invisible in the result
    n = int(4000 * scaled(1.0))
    X, _ = make_blobs(max(n, 400), n_features=8, n_clusters=9,
                      cluster_std=0.6, random_state=1)
    legs = []
    models = {}
    for n_jobs in JOBS:
        config = None if n_jobs is None else ExecutorConfig(n_jobs)
        seconds, model = _fit_kr(config, X)
        models[n_jobs] = model
        legs.append({
            "n_jobs": n_jobs,
            "n_threads": model.n_threads.n_threads,
            "row_blocks": len(row_blocks(X.shape[0])),
            "blas_threads": blas_threads(),
            "seconds": round(seconds, 4),
        })
    serial_model = models[1]
    for parallel_model in (models[2], models[4]):
        assert parallel_model.inertia_ == serial_model.inertia_
        assert np.array_equal(parallel_model.labels_, serial_model.labels_)
        for a, b in zip(parallel_model.protocentroids_,
                        serial_model.protocentroids_):
            assert np.array_equal(a, b)

    # ---- seed order, not finish order, on real compute
    reports = [
        run_restarts(_compute_restart, N_RESTARTS, np.random.default_rng(0),
                     ExecutorConfig(jobs))
        for jobs in (1, 4)
    ]
    assert [o.inertia for o in reports[1].outcomes] == \
        [o.inertia for o in reports[0].outcomes]

    base = legs[1]["seconds"]
    rows = [
        f"{str(leg['n_jobs']):>8}{leg['n_threads']:>11}"
        f"{str(leg['blas_threads']):>12}"
        f"{leg['seconds']:>11.3f}s{base / leg['seconds']:>12.2f}x"
        for leg in legs
    ]
    print_rows(
        f"{'n_jobs':>8}{'n_threads':>11}{'BLAS thr.':>12}{'fit':>12}"
        f"{'vs n_jobs=1':>12}",
        rows,
    )
    print(f"n={X.shape[0]} ({len(row_blocks(X.shape[0]))} row block), "
          f"cores={len(os.sched_getaffinity(0))}")

    record = {
        "n_restarts": N_RESTARTS,
        "cores": len(os.sched_getaffinity(0)),
        "bit_identical_selection": True,
        "real_compute": {
            "n_samples": int(X.shape[0]),
            "n_features": int(X.shape[1]),
            "cardinalities": [3, 3],
            "legs": legs,
            "asserted": False,
        },
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "parallel_restarts.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
