"""Regenerate the committed ``n_jobs`` restart fixture in this directory.

``restarts.npz`` holds the data and the fault-free result of every
``n_jobs`` fit in :data:`CASES` at every width in :data:`WIDTHS`: labels,
inertia, ``n_iter_`` and the fitted model arrays.  The data spans two
row blocks, so the row pool is live while the restart threads run.
``tests/test_restart_fixtures.py`` refits every case and requires the
result to equal the fixture bit for bit (values and signs of zero), so a
change to the parallel restart sweep that moves a fault-free result
fails there instead of silently changing users' models.

Regenerate only when the ``n_jobs`` result changes on purpose::

    PYTHONPATH=src python tests/fixtures/restarts/make_restarts.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "restarts.npz"

#: ``n_jobs`` widths every case is fitted at.
WIDTHS = (1, 2, 4)


def make_data() -> np.ndarray:
    from repro.datasets import make_blobs

    # 4500 rows: two row blocks of the default 4096-row partition.
    X, _ = make_blobs(4500, n_features=3, n_clusters=6, cluster_std=0.8,
                      random_state=7)
    return X


def _kmeans(n_jobs):
    from repro import KMeans

    return KMeans(6, n_init=4, max_iter=30, random_state=3, n_jobs=n_jobs)


def _kr_sum(n_jobs):
    from repro import KhatriRaoKMeans

    return KhatriRaoKMeans((2, 3), aggregator="sum", n_init=4, max_iter=30,
                           random_state=3, n_jobs=n_jobs)


def _kr_product(n_jobs):
    from repro import KhatriRaoKMeans

    return KhatriRaoKMeans((2, 3), aggregator="product", n_init=4,
                           max_iter=30, random_state=3, n_jobs=n_jobs)


#: case name -> estimator factory taking ``n_jobs``
CASES = {
    "kmeans": _kmeans,
    "kr_sum": _kr_sum,
    "kr_product": _kr_product,
}


def model_arrays(model) -> list:
    if hasattr(model, "protocentroids_"):
        return list(model.protocentroids_)
    return [model.cluster_centers_]


def fit_arrays(name: str, n_jobs: int, X: np.ndarray) -> dict:
    """The fixture arrays of case ``name`` fitted at ``n_jobs``."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = CASES[name](n_jobs).fit(X)
    prefix = f"{name}_jobs{n_jobs}_"
    arrays = {
        f"{prefix}labels": model.labels_,
        f"{prefix}inertia": np.float64(model.inertia_),
        f"{prefix}n_iter": np.int64(model.n_iter_),
    }
    for q, theta in enumerate(model_arrays(model)):
        arrays[f"{prefix}model{q}"] = theta
    return arrays


def main() -> None:
    X = make_data()
    arrays = {"data": X}
    for name in CASES:
        for n_jobs in WIDTHS:
            arrays.update(fit_arrays(name, n_jobs, X))
    np.savez_compressed(FIXTURE, **arrays)
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
