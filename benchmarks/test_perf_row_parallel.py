"""Row-parallel kernel throughput (`.benchmarks/row_parallel.json`).

Certifies the row-block execution layer: the pool must produce a
bit-identical model at every thread count, and return blocks in block
order whatever order the workers finished in.  Those are the asserts.

Throughput is recorded, not asserted: real ``KhatriRaoKMeans`` fits on
the profile shape (64 features, (16, 16) sets) at several pool widths,
each with the pool width, the OpenBLAS thread count its blocks ran
under (the pool's BLAS budget), the count outside fits and the core
count, so a reader can judge the numbers.  Wall-clock ratios
depend on the machine and its load, so no floor on them is part of the
test.
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
from repro.runtime import ParallelConfig, RowBlockPool, resolve_parallel
from repro.runtime.parallel import blas_threads

BLOCK_ROWS = 512
#: Pool widths of the real-compute leg; ``None`` is the default width.
WIDTHS = (1, 2, None, 4)


def _fit_kr(n_threads, X, **kwargs):
    """Time one fit; returns ``(seconds, model)``."""
    start = time.perf_counter()
    model = KhatriRaoKMeans(
        n_threads=n_threads, random_state=0, **kwargs
    ).fit(X)
    return time.perf_counter() - start, model


def _blas_in_blocks(config):
    """The OpenBLAS thread counts a multi-block map's blocks run under."""
    with RowBlockPool(config) as pool:
        seen = pool.map(lambda s, e: blas_threads(), 2 * config.block_rows)
    return sorted({t for t in seen if t is not None})


def _assert_same_model(a, b):
    assert a.inertia_ == b.inertia_
    assert a.n_iter_ == b.n_iter_
    assert np.array_equal(a.labels_, b.labels_)
    for x, y in zip(a.protocentroids_, b.protocentroids_):
        assert np.array_equal(x, y)


def test_row_parallel_throughput():
    print_header("Row-parallel kernels: supervised block pool throughput")

    # ---- correctness gate: many small blocks, pool width is invisible
    n = int(16000 * scaled(1.0))
    X, _ = make_blobs(max(n, 2000), n_features=8, n_clusters=9,
                      cluster_std=0.6, random_state=1)
    small = dict(cardinalities=(3, 3), n_init=4, max_iter=50)
    _, serial_model = _fit_kr(ParallelConfig(1, block_rows=BLOCK_ROWS),
                              X, **small)
    _, parallel_model = _fit_kr(ParallelConfig(4, block_rows=BLOCK_ROWS),
                                X, **small)
    _assert_same_model(parallel_model, serial_model)

    # ---- block order, not finish order, on real compute
    rng = np.random.default_rng(0)
    W = rng.normal(size=(8, 64))

    def block(start, stop):
        return float(np.sum((X[start:stop] @ W) ** 2))

    sweeps = []
    for width in (1, 4):
        with RowBlockPool(ParallelConfig(width, block_rows=BLOCK_ROWS)) as pool:
            sweeps.append(pool.map(block, X.shape[0]))
    assert sweeps[0] == sweeps[1]

    # ---- real-compute leg (recorded): the profile shape at each width
    n_profile = max(4000, int(20000 * scaled(1.0)))
    Xp, _ = make_blobs(n_profile, n_features=64, n_clusters=256,
                       cluster_std=1.0, random_state=0)
    profile = dict(cardinalities=(16, 16), n_init=1, max_iter=60)
    legs = []
    reference = None
    for width in WIDTHS:
        seconds, model = _fit_kr(width, Xp, **profile)
        if reference is None:
            reference = model
        _assert_same_model(model, reference)
        legs.append({
            "n_threads": resolve_parallel(width).n_threads,
            "default_width": width is None,
            "blas_threads_in_blocks": _blas_in_blocks(resolve_parallel(width)),
            "seconds": round(seconds, 4),
            "n_iter": int(model.n_iter_),
        })

    base = legs[0]["seconds"]
    rows = [
        f"{leg['n_threads']:>9}{'*' if leg['default_width'] else ' ':<3}"
        f"{str(leg['blas_threads_in_blocks']):>12}"
        f"{leg['seconds']:>11.3f}s{base / leg['seconds']:>9.2f}x"
        for leg in legs
    ]
    print_rows(
        f"{'n_threads':>9}{'':<3}{'BLAS thr.':>12}{'fit':>12}{'vs 1':>9}",
        rows,
    )
    print(f"n={n_profile}, cores={len(os.sched_getaffinity(0))}, "
          f"BLAS threads outside fits={blas_threads()} (* = default width)")

    record = {
        "block_rows_small": BLOCK_ROWS,
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads_outside_fit": blas_threads(),
        "bit_identical_fit": True,
        "real_compute": {
            "n_samples": int(Xp.shape[0]),
            "n_features": int(Xp.shape[1]),
            "cardinalities": [16, 16],
            "n_jobs": None,
            "legs": legs,
            "asserted": False,
        },
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "row_parallel.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
