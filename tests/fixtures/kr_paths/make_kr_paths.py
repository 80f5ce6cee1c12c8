"""Regenerate the committed Khatri-Rao scoring-path fixture in this directory.

``kr_paths.npz`` pins, bit for bit (values and signs of zero), the
consumers of the assignment dispatch and the set-statistics kernels that
no other fixture covers:

* :class:`repro.KhatriRaoKMeans` in ``mode="memory"`` for every case in
  :data:`MEMORY_CASES` — the product aggregator (and the sum aggregator
  forced ``assignment="materialized"``), float32 and float64, pruned and
  unpruned, ``chunk_size`` below and at least ``∏ h_q``: labels, inertia,
  ``n_iter_``, protocentroids and ``predict`` on held-out rows;
* :class:`repro.summary.DataSummary` for every case in
  :data:`SUMMARY_CASES` — ``score`` before and after a weighted
  ``refine(n_steps=2)``, and the refined protocentroids;
* :class:`repro.KhatriRaoFederatedKMeans` for every case in
  :data:`FEDERATED_CASES` — sum and product, one to three sets, float32
  and float64, ``local_steps=2``, a dropout schedule and one shard over
  4096 rows (so its client statistics span several row blocks):
  protocentroids, ``initial_inertia_``, ``history_.inertia`` and
  ``predict``;
* :class:`repro.KMeans` for every case in :data:`KMEANS_CASES` — random
  init at ``k = 150`` on data whose rows repeat (so clusters go empty and
  the farthest-point reseed runs) and k-means++ init on blobs, float32
  and float64, pruned and unpruned, with and without weights, plus an
  ``n_jobs=2`` fit: labels, inertia, ``n_iter_``, centers and
  ``predict`` and ``score`` on held-out rows, and ``transform`` for the
  cases in :data:`KMEANS_TRANSFORM_CASES`;
* :class:`repro.FederatedKMeans` for every case in :data:`FKM_CASES` —
  float32 and float64, ``local_steps=2``, one dropout schedule, on the
  federated shards: centers and ``predict``;
* :class:`repro.NaiveKhatriRao` (product) and
  :func:`repro.core.decompose_centroids` (sum and product) at ``p = 2``
  for every case in :data:`NAIVE_CASES` and :data:`DECOMPOSE_CASES`:
  protocentroids, and the naive fit's labels;
* :class:`repro.core.XMeans` and :class:`repro.core.GMeans` on small
  blobs for every case in :data:`GROWTH_CASES`: labels and centers.

The inputs come from the legacy ``np.random.RandomState`` stream, whose
output numpy keeps fixed across releases, so only the results are
stored; ``data_digest`` records a checksum of every input so a drifted
generator fails loudly instead of comparing against the wrong data.
``tests/test_kr_paths_fixtures.py`` recomputes every entry and requires
equality; ``kmeans_data_digest`` does the same for the ``KMeans`` inputs
and ``consumer_data_digest`` for the naive, decomposition and growth
inputs.

Regenerate only when one of these results changes on purpose::

    PYTHONPATH=src python tests/fixtures/kr_paths/make_kr_paths.py
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "kr_paths.npz"

N_FEATURES = 6

#: memory-mode fit case -> (cardinalities, aggregator, assignment, dtype,
#: pruning, chunk_size)
MEMORY_CASES = {
    f"{agg}_{name}_{dtype}_{pruning}_c{chunk}": (
        cards, agg, assignment, dtype, pruning, chunk
    )
    for agg, assignment in (("product", "auto"), ("sum", "materialized"))
    for name, cards in (("p2", (4, 3)), ("p3", (3, 2, 2)))
    for dtype in ("float32", "float64")
    for pruning in ("none", "bounds")
    for chunk in (5, 16)
}
MEMORY_ROWS = 4500
PREDICT_ROWS = 300

#: summary case -> (cardinalities, aggregator, dtype)
SUMMARY_CASES = {
    f"{agg}_{name}_{dtype}": (cards, agg, dtype)
    for agg in ("sum", "product")
    for name, cards in (("p2", (3, 3)), ("p3", (2, 3, 2)))
    for dtype in ("float32", "float64")
}
SUMMARY_ROWS = 900

#: federated case -> (cardinalities, aggregator, dtype)
FEDERATED_CASES = {
    f"{agg}_p{len(cards)}_{dtype}": (cards, agg, dtype)
    for agg in ("sum", "product")
    for cards in ((4,), (3, 2), (2, 2, 2))
    for dtype in ("float32", "float64")
}
#: rows per client shard; the first spans two row blocks
SHARD_ROWS = (4600, 700, 500)
N_ROUNDS = 3
#: round -> dropped client indices
DROPOUT = {1: [2], 2: [0]}

#: KMeans case -> (n_clusters, init, data, dtype, pruning, weighted, n_jobs)
KMEANS_CASES = {
    f"{init_name}_{dtype}_{pruning}{'_weighted' if weighted else ''}": (
        k, init, data, dtype, pruning, weighted, None
    )
    for init_name, k, init, data in (
        ("reseed", 150, "random", "repeated"),
        ("pp", 20, "k-means++", "blobs"),
    )
    for dtype in ("float32", "float64")
    for pruning in ("none", "auto")
    for weighted in (False, True)
}
KMEANS_CASES["pp_float64_auto_jobs2"] = (
    20, "k-means++", "blobs", "float64", "auto", False, 2
)
KMEANS_CASES["reseed_float64_auto_weighted_jobs2"] = (
    150, "random", "repeated", "float64", "auto", True, 2
)
#: KMeans cases that also pin ``transform``, one per dtype: it is the
#: squared distances to the centers every case already pins
KMEANS_TRANSFORM_CASES = ("pp_float32_none", "pp_float64_none")
#: distinct rows of the repeated-rows data, each repeated KMEANS_REPEATS times
KMEANS_DISTINCT = 240
KMEANS_REPEATS = 5
KMEANS_ROWS = 1200
KMEANS_FEATURES = 8

#: FederatedKMeans case -> (n_clusters, dtype, dropout)
FKM_CASES = {
    "float64": (16, "float64", False),
    "float32": (16, "float32", False),
    "float64_dropout": (16, "float64", True),
}
#: NaiveKhatriRao case -> (cardinalities, aggregator)
NAIVE_CASES = {"product_p2": ((3, 3), "product")}
#: decompose_centroids case -> (cardinalities, aggregator)
DECOMPOSE_CASES = {
    f"{agg}_p2": ((4, 3), agg) for agg in ("sum", "product")
}
#: X-Means / G-Means case -> (estimator, k_min, k_max)
GROWTH_CASES = {
    f"{estimator.lower()}_{name}": (estimator, k_min, k_max)
    for estimator in ("XMeans", "GMeans")
    for name, k_min, k_max in (("grow", 1, 12), ("capped", 2, 4))
}
GROWTH_ROWS = 800
GROWTH_FEATURES = 4


def _positive_blobs(rng, rows: int) -> np.ndarray:
    """Blobs on a positive range, so product factors stay well-posed."""
    centers = rng.uniform(1.0, 6.0, size=(12, N_FEATURES))
    X = centers[rng.randint(0, 12, size=rows)]
    return X + 0.3 * rng.standard_normal(X.shape)


def memory_inputs(name: str):
    """``(X, X_new)`` of memory-mode case ``name``."""
    _, _, _, dtype, _, _ = MEMORY_CASES[name]
    rng = np.random.RandomState(11)
    X = _positive_blobs(rng, MEMORY_ROWS + PREDICT_ROWS).astype(dtype)
    return X[:MEMORY_ROWS], X[MEMORY_ROWS:]


def summary_inputs(name: str):
    """``(thetas, X, sample_weight)`` of summary case ``name``."""
    cardinalities, _, dtype = SUMMARY_CASES[name]
    rng = np.random.RandomState(23 + len(cardinalities))
    X = _positive_blobs(rng, SUMMARY_ROWS).astype(dtype)
    thetas = [
        rng.uniform(0.5, 2.5, size=(h, N_FEATURES)).astype(dtype)
        for h in cardinalities
    ]
    weights = rng.uniform(0.5, 2.0, size=SUMMARY_ROWS)
    return thetas, X, weights


def federated_inputs():
    """``(shards, X_new)`` shared by every federated case (float64)."""
    rng = np.random.RandomState(31)
    shards = [_positive_blobs(rng, rows) for rows in SHARD_ROWS]
    return shards, _positive_blobs(rng, PREDICT_ROWS)


def kmeans_inputs(name: str):
    """``(X, X_new, sample_weight)`` of KMeans case ``name``; the weights
    are ``None`` for an unweighted case."""
    _, _, data, dtype, _, weighted, _ = KMEANS_CASES[name]
    rng = np.random.RandomState(41)
    centers = rng.uniform(-5.0, 5.0, size=(30, KMEANS_FEATURES))
    if data == "repeated":
        rows = centers[rng.randint(0, 30, size=KMEANS_DISTINCT)]
        rows = rows + 0.5 * rng.standard_normal(rows.shape)
        X = np.repeat(rows, KMEANS_REPEATS, axis=0)
    else:
        X = centers[rng.randint(0, 30, size=KMEANS_ROWS)]
        X = X + 0.5 * rng.standard_normal(X.shape)
    X_new = rng.uniform(-6.0, 6.0, size=(PREDICT_ROWS, KMEANS_FEATURES))
    weights = rng.uniform(0.5, 2.0, size=X.shape[0])
    return (X.astype(dtype), X_new.astype(dtype),
            weights if weighted else None)


def naive_inputs() -> np.ndarray:
    """Rows of the naive fit (positive, for the product aggregator)."""
    return _positive_blobs(np.random.RandomState(53), SUMMARY_ROWS)


def decompose_inputs() -> np.ndarray:
    """The ``(12, N_FEATURES)`` centroids every decomposition case
    approximates."""
    return np.random.RandomState(59).uniform(0.5, 3.0, size=(12, N_FEATURES))


def growth_inputs() -> np.ndarray:
    """Small blobs shared by the X-Means and G-Means cases."""
    rng = np.random.RandomState(61)
    centers = rng.uniform(-5.0, 5.0, size=(6, GROWTH_FEATURES))
    X = centers[rng.randint(0, 6, size=GROWTH_ROWS)]
    return X + 0.4 * rng.standard_normal(X.shape)


def kmeans_arrays(name: str) -> dict:
    """The fixture arrays of KMeans case ``name``."""
    from repro import KMeans

    k, init, _, dtype, pruning, _, n_jobs = KMEANS_CASES[name]
    X, X_new, weights = kmeans_inputs(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = KMeans(
            k, init=init, n_init=3, max_iter=40, pruning=pruning,
            dtype=dtype, random_state=8, n_jobs=n_jobs,
        ).fit(X, sample_weight=weights)
    prefix = f"kmeans_{name}__"
    arrays = {
        f"{prefix}labels": model.labels_,
        f"{prefix}inertia": np.float64(model.inertia_),
        f"{prefix}n_iter": np.int64(model.n_iter_),
        f"{prefix}centers": model.cluster_centers_,
        f"{prefix}predict": model.predict(X_new),
        f"{prefix}score": np.float64(model.score(X_new)),
    }
    if name in KMEANS_TRANSFORM_CASES:
        arrays[f"{prefix}transform"] = model.transform(X_new)
    return arrays


def memory_arrays(name: str) -> dict:
    """The fixture arrays of memory-mode case ``name``."""
    from repro import KhatriRaoKMeans

    cardinalities, agg, assignment, dtype, pruning, chunk = MEMORY_CASES[name]
    X, X_new = memory_inputs(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = KhatriRaoKMeans(
            cardinalities, aggregator=agg, mode="memory",
            assignment=assignment, pruning=pruning, chunk_size=chunk,
            dtype=dtype, n_init=1, max_iter=40, random_state=5,
        ).fit(X)
    prefix = f"memory_{name}__"
    arrays = {
        f"{prefix}labels": model.labels_,
        f"{prefix}inertia": np.float64(model.inertia_),
        f"{prefix}n_iter": np.int64(model.n_iter_),
        f"{prefix}predict": model.predict(X_new),
    }
    for q, theta in enumerate(model.protocentroids_):
        arrays[f"{prefix}theta{q}"] = theta
    return arrays


def summary_arrays(name: str) -> dict:
    """The fixture arrays of summary case ``name``."""
    from repro.summary import DataSummary

    _, agg, _ = SUMMARY_CASES[name]
    thetas, X, weights = summary_inputs(name)
    summary = DataSummary(thetas, aggregator_name=agg)
    prefix = f"summary_{name}__"
    labels, distances = summary.score(X)
    arrays = {
        f"{prefix}labels": labels,
        f"{prefix}distances": distances,
    }
    summary.refine(X, n_steps=2, sample_weight=weights, random_state=0)
    labels, distances = summary.score(X)
    arrays[f"{prefix}refined_labels"] = labels
    arrays[f"{prefix}refined_distances"] = distances
    for q, theta in enumerate(summary.protocentroids):
        arrays[f"{prefix}theta{q}"] = theta
    return arrays


def federated_arrays(name: str) -> dict:
    """The fixture arrays of federated case ``name``."""
    from repro import KhatriRaoFederatedKMeans
    from repro.faults import DropoutSchedule

    cardinalities, agg, dtype = FEDERATED_CASES[name]
    shards, X_new = federated_inputs()
    model = KhatriRaoFederatedKMeans(
        cardinalities, aggregator=agg, n_rounds=N_ROUNDS, local_steps=2,
        dtype=dtype, random_state=4,
        participation=DropoutSchedule.from_spec(DROPOUT),
    ).fit(shards)
    prefix = f"federated_{name}__"
    arrays = {
        f"{prefix}initial_inertia": np.float64(model.initial_inertia_),
        f"{prefix}inertia": np.asarray(model.history_.inertia, dtype=np.float64),
        f"{prefix}predict": model.predict(X_new),
    }
    for q, theta in enumerate(model.protocentroids_):
        arrays[f"{prefix}theta{q}"] = theta
    return arrays


def fkm_arrays(name: str) -> dict:
    """The fixture arrays of FederatedKMeans case ``name``."""
    from repro import FederatedKMeans
    from repro.faults import DropoutSchedule

    n_clusters, dtype, dropout = FKM_CASES[name]
    shards, X_new = federated_inputs()
    model = FederatedKMeans(
        n_clusters, n_rounds=N_ROUNDS, local_steps=2, dtype=dtype,
        random_state=4,
        participation=DropoutSchedule.from_spec(DROPOUT) if dropout else None,
    ).fit(shards)
    prefix = f"fkm_{name}__"
    return {
        f"{prefix}centers": model.cluster_centers_,
        f"{prefix}predict": model.predict(X_new),
    }


def naive_arrays(name: str) -> dict:
    """The fixture arrays of NaiveKhatriRao case ``name``."""
    from repro import NaiveKhatriRao

    cardinalities, agg = NAIVE_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = NaiveKhatriRao(
            cardinalities, aggregator=agg, n_init=2, max_iter=30,
            random_state=6,
        ).fit(naive_inputs())
    prefix = f"naive_{name}__"
    arrays = {f"{prefix}labels": model.labels_}
    for q, theta in enumerate(model.protocentroids_):
        arrays[f"{prefix}theta{q}"] = theta
    return arrays


def decompose_arrays(name: str) -> dict:
    """The fixture arrays of decompose_centroids case ``name``."""
    from repro.core import decompose_centroids

    cardinalities, agg = DECOMPOSE_CASES[name]
    thetas, _ = decompose_centroids(
        decompose_inputs(), cardinalities, aggregator=agg, random_state=7
    )
    return {f"decompose_{name}__theta{q}": theta for q, theta in enumerate(thetas)}


def growth_arrays(name: str) -> dict:
    """The fixture arrays of X-Means / G-Means case ``name``."""
    from repro import core

    estimator, k_min, k_max = GROWTH_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = getattr(core, estimator)(
            k_min=k_min, k_max=k_max, n_init=2, max_iter=30, random_state=9
        ).fit(growth_inputs())
    prefix = f"growth_{name}__"
    return {
        f"{prefix}labels": model.labels_,
        f"{prefix}centers": model.cluster_centers_,
    }


def data_digest() -> np.ndarray:
    """Sum and first row of every generated input, in case order."""
    parts = []

    def add(array):
        array = np.asarray(array, dtype=np.float64)
        parts.append([array.sum()])
        parts.append(array.reshape(-1, array.shape[-1])[0])

    for name in MEMORY_CASES:
        for array in memory_inputs(name):
            add(array)
    for name in SUMMARY_CASES:
        thetas, X, weights = summary_inputs(name)
        for array in thetas + [X, weights[None, :]]:
            add(array)
    shards, X_new = federated_inputs()
    for array in shards + [X_new]:
        add(array)
    return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])


def kmeans_data_digest() -> np.ndarray:
    """Sum and first row of every KMeans input, in case order (kept apart
    from :func:`data_digest`, whose committed value predates these cases)."""
    parts = []
    for name in KMEANS_CASES:
        for array in kmeans_inputs(name):
            if array is not None:
                array = np.asarray(array, dtype=np.float64)
                parts.append([array.sum()])
                parts.append(array.reshape(-1, array.shape[-1])[0])
    return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])


def consumer_data_digest() -> np.ndarray:
    """Sum and first row of the naive, decomposition and growth inputs
    (the federated cases reuse the shards :func:`data_digest` covers)."""
    parts = []
    for array in (naive_inputs(), decompose_inputs(), growth_inputs()):
        parts.append([array.sum()])
        parts.append(array[0])
    return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])


def main() -> None:
    arrays = {
        "data_digest": data_digest(),
        "kmeans_data_digest": kmeans_data_digest(),
        "consumer_data_digest": consumer_data_digest(),
    }
    for name in MEMORY_CASES:
        arrays.update(memory_arrays(name))
    for name in SUMMARY_CASES:
        arrays.update(summary_arrays(name))
    for name in FEDERATED_CASES:
        arrays.update(federated_arrays(name))
    for name in KMEANS_CASES:
        arrays.update(kmeans_arrays(name))
    for name in FKM_CASES:
        arrays.update(fkm_arrays(name))
    for name in NAIVE_CASES:
        arrays.update(naive_arrays(name))
    for name in DECOMPOSE_CASES:
        arrays.update(decompose_arrays(name))
    for name in GROWTH_CASES:
        arrays.update(growth_arrays(name))
    np.savez_compressed(FIXTURE, **arrays)
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
