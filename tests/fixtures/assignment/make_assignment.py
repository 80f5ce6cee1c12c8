"""Regenerate the committed factored-assignment fixture in this directory.

``assignment.npz`` pins two things bit for bit (values and signs of zero):

* :func:`repro.core.assign_factored` labels and top-2 distances for every
  case in :data:`KERNEL_CASES` — two and three protocentroid sets,
  float32 and float64, continuous data and small-integer data full of
  exact ties — on a draw of ``max(ROWS)`` rows.  Rows are scored
  independently, so the test assigns every prefix in :data:`ROWS` (row
  counts that straddle the block-size rule picking the kernel's block
  path, up to several row blocks) and requires the stored prefix;
* :class:`repro.KhatriRaoKMeans` fits for every case in :data:`FIT_CASES`
  — pruned and unpruned, weighted and not, float32 and float64, on data
  spanning two row blocks: labels, inertia, ``n_iter_`` and the
  protocentroids.

The inputs are drawn from the legacy ``np.random.RandomState`` stream,
whose output numpy keeps fixed across releases, so only the results are
stored; ``data_digest`` records a checksum of every input so a drifted
generator fails loudly instead of comparing against the wrong data.
``tests/test_assignment_fixtures.py`` recomputes every entry and
requires equality, so a change to the assignment kernels that moves a
result fails there instead of silently changing users' models.

Regenerate only when an assignment result changes on purpose::

    PYTHONPATH=src python tests/fixtures/assignment/make_assignment.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "assignment.npz"

#: row counts of every kernel case (prefixes of one 9000-row draw)
ROWS = (300, 1500, 4096, 9000)
N_FEATURES = 16

#: kernel case name -> (cardinalities, dtype, integer-valued tie data)
KERNEL_CASES = {
    f"{name}_{dtype}_{kind}": (cards, dtype, kind == "ties")
    for name, cards in (("p2", (16, 16)), ("p3", (8, 8, 8)))
    for dtype in ("float32", "float64")
    for kind in ("normal", "ties")
}

FIT_ROWS = 5000
#: fit case name -> (cardinalities, dtype, pruning, weighted)
FIT_CASES = {
    f"{name}_{dtype}_{pruning}{'_weighted' if weighted else ''}": (
        cards, dtype, pruning, weighted
    )
    for name, cards in (("p2", (16, 16)), ("p3", (8, 8, 8)))
    for dtype in ("float32", "float64")
    for pruning in ("none", "bounds")
    for weighted in (False, True)
}


def kernel_inputs(name: str):
    """``(X, thetas)`` of kernel case ``name`` at the largest row count."""
    cardinalities, dtype, ties = KERNEL_CASES[name]
    rng = np.random.RandomState(sum(cardinalities) + 101 * ties)
    if ties:
        # Small integers: every Gram entry and self-term is exact, so
        # equal partial scores are common and the tie-break is exercised.
        X = rng.randint(-2, 3, size=(ROWS[-1], N_FEATURES)).astype(dtype)
        thetas = [
            rng.randint(-1, 2, size=(h, N_FEATURES)).astype(dtype)
            for h in cardinalities
        ]
        # Duplicate protocentroids make whole centroid families tie.
        for theta in thetas:
            theta[-1] = theta[0]
    else:
        X = rng.standard_normal((ROWS[-1], N_FEATURES)).astype(dtype)
        thetas = [
            rng.standard_normal((h, N_FEATURES)).astype(dtype)
            for h in cardinalities
        ]
    return X, thetas


def fit_inputs(name: str):
    """``(X, sample_weight or None)`` of fit case ``name``."""
    cardinalities, dtype, _, weighted = FIT_CASES[name]
    rng = np.random.RandomState(7)
    centers = rng.uniform(-8.0, 8.0, size=(64, 8))
    X = centers[rng.randint(0, 64, size=FIT_ROWS)]
    X = (X + rng.standard_normal(X.shape)).astype(dtype)
    weights = rng.uniform(0.5, 2.0, size=FIT_ROWS) if weighted else None
    return X, weights


def kernel_arrays(name: str, rows: int = ROWS[-1]) -> dict:
    """The fixture arrays of kernel case ``name`` on its first ``rows`` rows."""
    from repro.core import assign_factored

    X, thetas = kernel_inputs(name)
    labels, best, second = assign_factored(
        X[:rows], thetas, "sum", return_second=True
    )
    prefix = f"kernel_{name}__"
    return {
        f"{prefix}labels": labels,
        f"{prefix}best": best,
        f"{prefix}second": second,
    }


def fit_arrays(name: str) -> dict:
    """The fixture arrays of fit case ``name``."""
    import warnings

    from repro import KhatriRaoKMeans

    cardinalities, dtype, pruning, _ = FIT_CASES[name]
    X, weights = fit_inputs(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = KhatriRaoKMeans(
            cardinalities, n_init=1, max_iter=100, pruning=pruning,
            dtype=dtype, random_state=3,
        ).fit(X, sample_weight=weights)
    prefix = f"fit_{name}__"
    arrays = {
        f"{prefix}labels": model.labels_,
        f"{prefix}inertia": np.float64(model.inertia_),
        f"{prefix}n_iter": np.int64(model.n_iter_),
    }
    for q, theta in enumerate(model.protocentroids_):
        arrays[f"{prefix}theta{q}"] = theta
    return arrays


def data_digest() -> np.ndarray:
    """Sum and first row of every generated input, in case order."""
    parts = []
    for name in KERNEL_CASES:
        X, thetas = kernel_inputs(name)
        for array in [X] + thetas:
            parts.append([array.astype(np.float64).sum()])
            parts.append(array[0].astype(np.float64))
    for name in FIT_CASES:
        X, weights = fit_inputs(name)
        parts.append([X.astype(np.float64).sum()])
        parts.append(X[0].astype(np.float64))
        if weights is not None:
            parts.append([weights.sum()])
    return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])


def main() -> None:
    arrays = {"data_digest": data_digest()}
    for name in KERNEL_CASES:
        arrays.update(kernel_arrays(name))
    for name in FIT_CASES:
        arrays.update(fit_arrays(name))
    np.savez_compressed(FIXTURE, **arrays)
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
