"""Assignment-step and pruned-Lloyd benchmarks.

The paper's complexity analysis (Section 6) pins the cost of Khatri-Rao
k-Means on the assignment step.  Two benchmarks attack it from both sides:

* ``test_factored_assignment_speedup`` times one assignment of a
  high-dimensional workload (n=5000, m=256, cardinalities=(8,8,8) → k=512)
  through the seed materialized path (``khatri_rao_combine`` +
  ``assign_to_nearest``, ``O(n·k·m)``) and through the factored kernel
  (``assign_factored``, ``O(n·m·Σh_q + n·k·p)``), in both full-grid and
  chunked (memory) modes.  The same record carries the two top-2 block
  kernels of the full-grid mode — the materialized ``(rows, k)`` score
  grid and the set-major slab sweep — timed per block at
  ``(16, 16)``/m=64 and ``(8, 8, 8)``/m=32 over a row ladder, with the
  smallest block where set-major won in this run next to the one where
  ``SET_MAJOR_MIN_GRID_BYTES`` switches to it
  → ``.benchmarks/assignment_speedup.json``.

* ``test_bounds_pruning_speedup`` times end-to-end multi-iteration
  ``KhatriRaoKMeans.fit()`` with and without cross-iteration Hamerly bounds
  (the ``pruning`` knob, :mod:`repro.core._bounds`) on KR-structured data,
  and records the per-iteration reassignment fraction — which must collapse
  once the protocentroid drift decays → ``.benchmarks/pruning_speedup.json``.

* ``test_update_speedup`` times one closed-form protocentroid update on an
  update-dominated workload (large ``n·m``, small ``Σ h_q`` — the regime
  left as the per-iteration floor once assignment is factored and pruned)
  through the gather reference (``update_gather``, several ``(n, m)``
  float temporaries per set) and the contingency-table kernel
  (``update_factored``, one one-hot data pass for all sets)
  → ``.benchmarks/update_speedup.json``.

* ``test_dtype_speedup`` times the assignment path (factored and
  materialized) at ``float32`` against ``float64`` on the same workload
  and records the tracemalloc peak of each call — the serving-shaped
  ``dtype`` knob must buy ≥ 40 % peak memory, which is deterministic
  → ``.benchmarks/dtype_speedup.json``.

No wall clock is asserted: each record carries its speedups next to the
floor they are expected to clear (``floors``) and whether this run
cleared it (``meets_floors``), so a reader judges the numbers on the
machine that produced them.  What is asserted is deterministic: every
correctness gate that runs before the timing, the fraction decay of the
pruning benchmark (seeded) and the float32 peak-memory reduction.
"""

from __future__ import annotations

import json
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
from conftest import print_header, scaled

from repro.core import (
    KhatriRaoKMeans,
    assign_factored,
    update_factored,
    update_gather,
)
from repro.core._distances import assign_to_nearest
from repro.core._factored import (
    _grid_top2,
    _prefers_set_major,
    _set_major_top2,
)
from repro.exceptions import ConvergenceWarning
from repro.linalg import SumAggregator, khatri_rao_combine

CARDINALITIES = (8, 8, 8)
N_FEATURES = 256
N_POINTS = 5000
CHUNK_SIZE = 256
REPEATS = 3
RETRIES = 3


def _best_of(repeats, fn):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(X, thetas):
    """Best-of-``REPEATS`` wall time for each assignment strategy."""

    def materialized():
        centroids = khatri_rao_combine(thetas, "sum")
        assign_to_nearest(X, centroids)

    def materialized_chunked():
        centroids = khatri_rao_combine(thetas, "sum")
        assign_to_nearest(X, centroids, chunk_size=CHUNK_SIZE)

    def factored():
        assign_factored(X, thetas, "sum")

    def factored_chunked():
        assign_factored(X, thetas, "sum", chunk_size=CHUNK_SIZE)

    return {
        "materialized": _best_of(REPEATS, materialized),
        "materialized_chunked": _best_of(REPEATS, materialized_chunked),
        "factored": _best_of(REPEATS, factored),
        "factored_chunked": _best_of(REPEATS, factored_chunked),
    }


def test_factored_assignment_speedup():
    n = max(500, int(N_POINTS * scaled(1.0)))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, N_FEATURES))
    thetas = [rng.normal(size=(h, N_FEATURES)) for h in CARDINALITIES]

    # Correctness gate before timing anything.
    ref_labels, ref_distances = assign_to_nearest(
        X, khatri_rao_combine(thetas, "sum")
    )
    labels, distances = assign_factored(X, thetas, "sum")
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_allclose(distances, ref_distances, atol=1e-6)

    # Keep the best observed time per strategy across attempts so a single
    # noisy attempt can't record a spurious slowdown for either mode.
    timings = {}
    for attempt in range(1, RETRIES + 1):
        attempt_timings = _measure(X, thetas)
        for name, elapsed in attempt_timings.items():
            timings[name] = min(timings.get(name, np.inf), elapsed)
        if (
            timings["factored"] <= timings["materialized"]
            and timings["factored_chunked"] <= timings["materialized_chunked"]
        ):
            break

    speedup_full = timings["materialized"] / timings["factored"]
    speedup_chunked = timings["materialized_chunked"] / timings["factored_chunked"]
    block_kernels = _block_kernel_timings()

    print_header(
        f"Assignment step: n={n}, m={N_FEATURES}, cardinalities={CARDINALITIES} "
        f"(k={int(np.prod(CARDINALITIES))})"
    )
    for name, elapsed in timings.items():
        print(f"{name:<22}{elapsed * 1e3:>10.2f} ms")
    print(f"{'speedup (full grid)':<22}{speedup_full:>10.2f}x")
    print(f"{'speedup (chunked)':<22}{speedup_chunked:>10.2f}x")
    for shape in block_kernels:
        print(f"top-2 block kernels, {shape['cardinalities']} "
              f"m={shape['n_features']}: grid / set-major ms per block")
        for leg in shape["ladder"]:
            print(f"{leg['rows']:>8} rows{leg['grid_ms']:>10.3f}"
                  f"{leg['set_major_ms']:>10.3f}{leg['speedup']:>8.2f}x"
                  f"{'  (selected)' if leg['selected'] else ''}")

    at_full_block = {
        f"block_speedup_{shape['name']}": shape["ladder"][-1]["speedup"]
        for shape in block_kernels
    }
    floors = {"speedup_full": 1.0, **dict.fromkeys(at_full_block, 1.0)}
    speedups = {"speedup_full": speedup_full, **at_full_block}
    record = {
        "benchmark": "assignment_speedup",
        "n_points": n,
        "n_features": N_FEATURES,
        "cardinalities": list(CARDINALITIES),
        "n_clusters": int(np.prod(CARDINALITIES)),
        "chunk_size": CHUNK_SIZE,
        "timings_seconds": timings,
        "speedup_full": speedup_full,
        "speedup_chunked": speedup_chunked,
        "block_kernels": block_kernels,
        **at_full_block,
        "floors": floors,
        "meets_floors": all(speedups[name] >= floors[name] for name in floors),
        "attempts": attempt,
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "assignment_speedup.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


#: (name, cardinalities, n_features) of the per-block kernel comparison:
#: the profile-fit shape and the monitored-stream shape.
BLOCK_SHAPES = (
    ("16x16", (16, 16), 64),
    ("8x8x8", (8, 8, 8), 32),
)
BLOCK_ROWS = (128, 256, 512, 1024, 2048, 4096)
BLOCK_REPEATS = 7


def _elapsed_ms(fn):
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * 1e3


def _block_kernel_timings():
    """Per-block grid vs set-major top-2 times over a row ladder.

    Each leg first asserts the two kernels agree bit for bit on that
    block, then alternates them ``BLOCK_REPEATS`` times and keeps each
    one's median.  ``crossover_rows`` is the smallest ladder block from
    which set-major won every larger block in this run;
    ``selected_from_rows`` is where the grid-bytes rule switches.
    """
    rng = np.random.default_rng(0)
    shapes = []
    for name, cardinalities, m in BLOCK_SHAPES:
        thetas = [rng.normal(size=(h, m)) for h in cardinalities]
        self_terms = SumAggregator().self_interaction(thetas)
        ladder = []
        for rows in BLOCK_ROWS:
            grams = SumAggregator().cross_gram(
                rng.normal(size=(rows, m)), thetas
            )
            want = _grid_top2(grams, self_terms, cardinalities, True)
            got = _set_major_top2(grams, self_terms, cardinalities, True)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))
            grid, set_major = [], []
            for _ in range(BLOCK_REPEATS):
                grid.append(_elapsed_ms(lambda: _grid_top2(
                    grams, self_terms, cardinalities, True)))
                set_major.append(_elapsed_ms(lambda: _set_major_top2(
                    grams, self_terms, cardinalities, True)))
            grid_ms, set_major_ms = np.median(grid), np.median(set_major)
            ladder.append({
                "rows": rows,
                "grid_bytes": rows * self_terms.nbytes,
                "grid_ms": round(float(grid_ms), 4),
                "set_major_ms": round(float(set_major_ms), 4),
                "speedup": round(float(grid_ms / set_major_ms), 3),
                "selected": _prefers_set_major(rows, cardinalities, self_terms),
            })
        crossover = None
        for leg in reversed(ladder):
            if leg["speedup"] <= 1.0:
                break
            crossover = leg["rows"]
        shapes.append({
            "name": name,
            "cardinalities": list(cardinalities),
            "n_features": m,
            "dtype": "float64",
            "ladder": ladder,
            "crossover_rows": crossover,
            "selected_from_rows": next(
                (leg["rows"] for leg in ladder if leg["selected"]), None
            ),
        })
    return shapes


# ----------------------------------------------------------------- update
UPDATE_CARDINALITIES = (4, 4, 4)
UPDATE_N_POINTS = 6000
UPDATE_N_FEATURES = 256


def test_update_speedup():
    """Contingency-table vs gather protocentroid update, update-dominated.

    Large ``n·m`` with small ``Σ h_q`` is exactly the regime where the
    closed-form update is the per-iteration floor (assignment is factored
    and pruned away): the gather reference materializes a ``(n, m)`` rest
    matrix per set (plus same-size temporaries around it) while the
    factored kernel reduces everything through one one-hot product pass
    over the data for all sets plus ``(h_q, h_r) @ (h_r, m)`` matmuls —
    same ``Θ(p·n·m)`` asymptotics, several-fold smaller constants.
    """
    n = max(1000, int(UPDATE_N_POINTS * scaled(1.0)))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, UPDATE_N_FEATURES))
    thetas = [rng.normal(size=(h, UPDATE_N_FEATURES)) for h in UPDATE_CARDINALITIES]
    k = int(np.prod(UPDATE_CARDINALITIES))
    set_labels = np.stack(
        np.unravel_index(rng.integers(k, size=n), UPDATE_CARDINALITIES), axis=1
    )
    weights = rng.uniform(0.5, 2.0, size=n)

    # Correctness gate before timing anything: same values to last-ulp
    # drift, identical reseed draws (fresh identical rngs per call).
    ref = update_gather(X, thetas, set_labels, "sum", np.random.default_rng(1))
    fac = update_factored(X, thetas, set_labels, "sum", np.random.default_rng(1))
    for r, f in zip(ref, fac):
        np.testing.assert_allclose(f, r, rtol=1e-9, atol=1e-9)

    def gather():
        update_gather(X, thetas, set_labels, "sum", np.random.default_rng(1))

    def factored():
        update_factored(X, thetas, set_labels, "sum", np.random.default_rng(1))

    def gather_weighted():
        update_gather(
            X, thetas, set_labels, "sum", np.random.default_rng(1), weights
        )

    def factored_weighted():
        update_factored(
            X, thetas, set_labels, "sum", np.random.default_rng(1), weights
        )

    # Retry pattern shared by the suite: keep the best observed time per
    # kernel across attempts, so one noisy attempt cannot record a spurious
    # slowdown, and stop early once the expected ordering shows up.
    timings = {}
    for attempt in range(1, RETRIES + 1):
        attempt_timings = {
            "gather": _best_of(REPEATS, gather),
            "factored": _best_of(REPEATS, factored),
            "gather_weighted": _best_of(REPEATS, gather_weighted),
            "factored_weighted": _best_of(REPEATS, factored_weighted),
        }
        for name, elapsed in attempt_timings.items():
            timings[name] = min(timings.get(name, np.inf), elapsed)
        if (
            timings["factored"] <= timings["gather"]
            and timings["factored_weighted"] <= timings["gather_weighted"]
        ):
            break

    speedup = timings["gather"] / timings["factored"]
    speedup_weighted = timings["gather_weighted"] / timings["factored_weighted"]

    print_header(
        f"Protocentroid update: n={n}, m={UPDATE_N_FEATURES}, "
        f"cardinalities={UPDATE_CARDINALITIES} (Σh={sum(UPDATE_CARDINALITIES)})"
    )
    for name, elapsed in timings.items():
        print(f"{name:<22}{elapsed * 1e3:>10.2f} ms")
    print(f"{'speedup':<22}{speedup:>10.2f}x")
    print(f"{'speedup (weighted)':<22}{speedup_weighted:>10.2f}x")

    record = {
        "benchmark": "update_speedup",
        "n_points": n,
        "n_features": UPDATE_N_FEATURES,
        "cardinalities": list(UPDATE_CARDINALITIES),
        "n_clusters": k,
        "timings_seconds": timings,
        "speedup": speedup,
        "speedup_weighted": speedup_weighted,
        "floors": {"speedup": 1.0, "speedup_weighted": 1.0},
        "meets_floors": bool(speedup >= 1.0 and speedup_weighted >= 1.0),
        "attempts": attempt,
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "update_speedup.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )


# ------------------------------------------------------------------ dtype
def _assignment_workload(n):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, N_FEATURES))
    thetas = [rng.normal(size=(h, N_FEATURES)) for h in CARDINALITIES]
    return X, thetas


def _peak_bytes(fn):
    """tracemalloc peak of one call (numpy allocations are tracked)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def test_dtype_speedup():
    """float32 vs float64 assignment path: wall clock and peak memory.

    The acceptance bar is ≥ 40 % peak-memory reduction, which is
    deterministic (array nbytes halve, tracemalloc sees it); the ≥ 1.4×
    assignment speedup depends on the BLAS build and the machine's load,
    so it is recorded next to its floor, not asserted.
    """
    n = max(500, int(N_POINTS * scaled(1.0)))
    X64, thetas64 = _assignment_workload(n)
    X32 = X64.astype(np.float32)
    thetas32 = [theta.astype(np.float32) for theta in thetas64]

    # Correctness gate before timing anything, asserting exactly what
    # docs/numerics.md promises: float32 distances inside the expansion-form
    # envelope, and label agreement wherever the float64 top-2 gap exceeds
    # the combined envelope (near-ties inside it may legitimately flip on a
    # different BLAS build, so they are excluded rather than asserted).
    ref_labels, ref_distances, ref_second = assign_factored(
        X64, thetas64, "sum", return_second=True
    )
    labels32, distances32 = assign_factored(X32, thetas32, "sum")
    eps32 = float(np.finfo(np.float32).eps)
    norms = np.einsum("ij,ij->i", X64, X64)
    envelope = 8.0 * (N_FEATURES + 8) * eps32 * (norms + ref_distances)
    assert np.all(np.abs(distances32.astype(np.float64) - ref_distances) <= envelope)
    decided = (ref_second - ref_distances) > 2.0 * envelope
    np.testing.assert_array_equal(labels32[decided], ref_labels[decided])

    def factored64():
        assign_factored(X64, thetas64, "sum")

    def factored32():
        assign_factored(X32, thetas32, "sum")

    def materialized64():
        assign_to_nearest(X64, khatri_rao_combine(thetas64, "sum"))

    def materialized32():
        assign_to_nearest(X32, khatri_rao_combine(thetas32, "sum"))

    timings = {}
    for attempt in range(1, RETRIES + 1):
        attempt_timings = {
            "factored_float64": _best_of(REPEATS, factored64),
            "factored_float32": _best_of(REPEATS, factored32),
            "materialized_float64": _best_of(REPEATS, materialized64),
            "materialized_float32": _best_of(REPEATS, materialized32),
        }
        for name, elapsed in attempt_timings.items():
            timings[name] = min(timings.get(name, np.inf), elapsed)
        if (
            timings["factored_float32"] <= timings["factored_float64"]
            and timings["materialized_float32"] <= timings["materialized_float64"]
        ):
            break

    speedup_factored = timings["factored_float64"] / timings["factored_float32"]
    speedup_materialized = (
        timings["materialized_float64"] / timings["materialized_float32"]
    )
    peaks = {
        "factored_float64": _peak_bytes(factored64),
        "factored_float32": _peak_bytes(factored32),
        "materialized_float64": _peak_bytes(materialized64),
        "materialized_float32": _peak_bytes(materialized32),
    }
    memory_reduction = 1.0 - peaks["factored_float32"] / peaks["factored_float64"]

    print_header(
        f"dtype=float32 assignment path: n={n}, m={N_FEATURES}, "
        f"cardinalities={CARDINALITIES} (k={int(np.prod(CARDINALITIES))})"
    )
    for name, elapsed in timings.items():
        print(f"{name:<24}{elapsed * 1e3:>10.2f} ms{peaks[name] / 1e6:>12.1f} MB peak")
    print(f"{'speedup (factored)':<24}{speedup_factored:>10.2f}x")
    print(f"{'speedup (materialized)':<24}{speedup_materialized:>10.2f}x")
    print(f"{'peak-memory reduction':<24}{memory_reduction:>10.1%}")

    record = {
        "benchmark": "dtype_speedup",
        "n_points": n,
        "n_features": N_FEATURES,
        "cardinalities": list(CARDINALITIES),
        "n_clusters": int(np.prod(CARDINALITIES)),
        "timings_seconds": timings,
        "peak_bytes": peaks,
        "speedup_factored": speedup_factored,
        "speedup_materialized": speedup_materialized,
        "memory_reduction_factored": memory_reduction,
        "floors": {"speedup_factored": 1.4},
        "meets_floors": bool(speedup_factored >= 1.4),
        "attempts": attempt,
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "dtype_speedup.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    # Deterministic (~50 % on any build: every hot array literally halves).
    assert memory_reduction >= 0.4, record
PRUNE_CARDINALITIES = (24, 24)
PRUNE_N_POINTS = 6000
PRUNE_N_FEATURES = 64
PRUNE_MAX_ITER = 60


def _kr_structured_data(n, m, cardinalities, *, seed=0, scale=8.0, noise=0.2):
    """Points around centers that form an exact Khatri-Rao (sum) grid.

    This is the paper's own generative setting: the optimum is
    KR-representable, so Lloyd actually converges and the late iterations
    are where an unpruned implementation keeps paying full price for a
    re-assignment that cannot change.
    """
    rng = np.random.default_rng(seed)
    thetas = [rng.normal(scale=scale, size=(h, m)) for h in cardinalities]
    flat = rng.integers(int(np.prod(cardinalities)), size=n)
    tuple_indices = np.unravel_index(flat, cardinalities)
    centers = sum(theta[idx] for theta, idx in zip(thetas, tuple_indices))
    return centers + rng.normal(scale=noise, size=(n, m))


def _timed_fit(X, *, assignment, pruning):
    model = KhatriRaoKMeans(
        PRUNE_CARDINALITIES,
        init="kr-k-means++",
        n_init=1,
        max_iter=PRUNE_MAX_ITER,
        tol=0.0,  # fixed-iteration workload: every iteration pays assignment
        assignment=assignment,
        pruning=pruning,
        random_state=0,
    )
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        model.fit(X)
    return time.perf_counter() - start, model


def test_bounds_pruning_speedup():
    n = max(1000, int(PRUNE_N_POINTS * scaled(1.0)))
    X = _kr_structured_data(n, PRUNE_N_FEATURES, PRUNE_CARDINALITIES)

    # Correctness gate before timing anything: pruned ≡ unpruned, exactly.
    _, ref = _timed_fit(X, assignment="factored", pruning="none")
    _, pruned = _timed_fit(X, assignment="factored", pruning="bounds")
    np.testing.assert_array_equal(ref.labels_, pruned.labels_)
    assert ref.inertia_ == pruned.inertia_
    assert ref.n_iter_ == pruned.n_iter_

    timings = {}
    fractions = {}
    for attempt in range(1, RETRIES + 1):
        for assignment in ("materialized", "factored"):
            for pruning in ("none", "bounds"):
                elapsed, model = _timed_fit(X, assignment=assignment, pruning=pruning)
                key = f"{assignment}_{pruning}"
                timings[key] = min(timings.get(key, np.inf), elapsed)
                if pruning == "bounds":
                    fractions[assignment] = model.reassignment_fractions_
        if timings["materialized_none"] >= timings["materialized_bounds"]:
            break

    speedups = {
        assignment: timings[f"{assignment}_none"] / timings[f"{assignment}_bounds"]
        for assignment in ("materialized", "factored")
    }

    print_header(
        f"Bounds-pruned Lloyd: n={n}, m={PRUNE_N_FEATURES}, "
        f"cardinalities={PRUNE_CARDINALITIES} "
        f"(k={int(np.prod(PRUNE_CARDINALITIES))}), {PRUNE_MAX_ITER} iterations"
    )
    for name, elapsed in timings.items():
        print(f"{name:<24}{elapsed * 1e3:>10.1f} ms")
    for assignment, factor in speedups.items():
        print(f"{'speedup (' + assignment + ')':<24}{factor:>10.2f}x")
    decayed = fractions["materialized"]
    tail = decayed[len(decayed) // 3:]
    print(f"{'reassignment tail max':<24}{max(tail):>10.4f}")

    record = {
        "benchmark": "pruning_speedup",
        "n_points": n,
        "n_features": PRUNE_N_FEATURES,
        "cardinalities": list(PRUNE_CARDINALITIES),
        "n_clusters": int(np.prod(PRUNE_CARDINALITIES)),
        "max_iter": PRUNE_MAX_ITER,
        "timings_seconds": timings,
        "speedup_materialized": speedups["materialized"],
        "speedup_factored": speedups["factored"],
        "reassignment_fractions": {
            name: [round(float(f), 4) for f in values]
            for name, values in fractions.items()
        },
        "floors": {"speedup_materialized": 1.0, "speedup_factored": 0.7},
        "meets_floors": bool(
            speedups["materialized"] >= 1.0 and speedups["factored"] >= 0.7
        ),
        "attempts": attempt,
    }
    out_dir = Path(__file__).resolve().parents[1] / ".benchmarks"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "pruning_speedup.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    # Deterministic (seeded, no wall clock): the workload runs ≥ 30
    # iterations and late iterations re-score almost nobody.
    assert len(decayed) >= 30
    assert max(tail) < 0.10, tail
