"""Regenerate the committed mini-batch stream fixture in this directory.

``stream.npz`` pins, bit for bit (values and signs of zero), what the
mini-batch step publishes and leaves behind:

* :class:`~repro.core.MiniBatchKhatriRaoKMeans` streams for every case in
  :data:`STREAM_CASES` — one, two and three protocentroid sets, float32
  and float64, weighted, the gather update, mixed indexed/anonymous
  ``partial_fit`` batches, the product aggregator, and bounds-pruned
  :meth:`~repro.core.MiniBatchKhatriRaoKMeans.fit` runs.  Every step's
  :class:`~repro.core.minibatch.BatchStats` (inertia, mean inertia,
  shift, re-score fraction, labels, drift tables) and the final
  protocentroids, learning-rate masses and
  :class:`~repro.core._bounds.StreamingBounds` arrays are stored;
* :class:`repro.KhatriRaoKMeans` fits with Hamerly pruning for every case
  in :data:`FIT_CASES`, on both sides of the ``∏ h_q ≤ rows`` rule the
  assigned-centroid gather picks its path by: labels, inertia,
  ``n_iter_``, ``reassignment_fractions_`` and the protocentroids.

The inputs are drawn from the legacy ``np.random.RandomState`` stream,
whose output numpy keeps fixed across releases; ``data_digest`` records a
checksum of every input so a drifted generator fails loudly.
``tests/test_stream_fixtures.py`` recomputes every entry and requires
equality.

Regenerate only when a stream result changes on purpose::

    PYTHONPATH=src python tests/fixtures/stream/make_stream.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "stream.npz"

POOL_ROWS = 600
N_FEATURES = 8
STEPS = 30

#: stream case name -> parameters.  ``mode`` is how batches arrive:
#: ``"indexed"`` (``partial_fit`` with ids), ``"mixed"`` (ids on even
#: steps only), ``"anonymous"`` (no ids) or ``"fit"`` (the estimator's own
#: pruned :meth:`fit` over the pool).
STREAM_CASES = {
    "p1_float64": dict(cards=(6,), dtype="float64", batch=48, mode="indexed"),
    "p2_float64": dict(cards=(5, 4), dtype="float64", batch=48, mode="indexed"),
    "p3_float64": dict(cards=(8, 8, 4), dtype="float64", batch=96,
                       mode="indexed"),
    "p3_float32": dict(cards=(4, 3, 3), dtype="float32", batch=64,
                       mode="indexed"),
    "p2_weighted": dict(cards=(5, 4), dtype="float64", batch=48,
                        mode="indexed", weighted=True),
    "p2_gather": dict(cards=(5, 4), dtype="float64", batch=48,
                      mode="indexed", update="gather"),
    "p2_gather_float32_weighted": dict(cards=(5, 4), dtype="float32",
                                       batch=48, mode="indexed",
                                       update="gather", weighted=True),
    "p2_mixed": dict(cards=(5, 4), dtype="float64", batch=48, mode="mixed"),
    "p2_product": dict(cards=(3, 3), dtype="float64", batch=40,
                       mode="anonymous", aggregator="product"),
    "p2_product_float32_weighted": dict(cards=(3, 3), dtype="float32",
                                        batch=40, mode="anonymous",
                                        aggregator="product", weighted=True),
    "p2_fit_float64": dict(cards=(5, 4), dtype="float64", batch=64,
                           mode="fit"),
    "p3_fit_float32_weighted": dict(cards=(4, 3, 3), dtype="float32",
                                    batch=64, mode="fit", weighted=True),
}

#: fit case name -> (cardinalities, rows, features, dtype)
FIT_CASES = {
    "p2_grid": ((16, 16), 20000, 16, "float64"),
    "p3_sets": ((32, 32, 8), 2000, 8, "float32"),
}

_STATS_SCALARS = ("inertia", "mean_inertia", "shift", "reassignment_fraction")


def stream_inputs(name: str):
    """``(X, weights or None, batch ids)`` of stream case ``name``."""
    case = STREAM_CASES[name]
    cards = case["cards"]
    rng = np.random.RandomState(sum(cards) + 31 * len(name))
    thetas = [rng.uniform(-3.0, 3.0, size=(h, N_FEATURES)) for h in cards]
    if case.get("aggregator") == "product":
        thetas = [np.abs(t) + 0.5 for t in thetas]
        cells = rng.randint(0, int(np.prod(cards)), size=POOL_ROWS)
        parts = np.unravel_index(cells, cards)
        X = np.prod([t[i] for t, i in zip(thetas, parts)], axis=0)
    else:
        cells = rng.randint(0, int(np.prod(cards)), size=POOL_ROWS)
        parts = np.unravel_index(cells, cards)
        X = np.sum([t[i] for t, i in zip(thetas, parts)], axis=0)
    X = X + 0.3 * rng.standard_normal(X.shape)
    if case.get("aggregator") == "product":
        # An all-zero feature splits into zero protocentroid coordinates,
        # so the gather update's zero denominators (its ``safe`` mask) fire.
        X[:, -1] = 0.0
    X = X.astype(case["dtype"])
    weights = (
        rng.uniform(0.5, 2.0, size=POOL_ROWS) if case.get("weighted") else None
    )
    ids = [rng.choice(POOL_ROWS, size=case["batch"], replace=False)
           for _ in range(STEPS)]
    return X, weights, ids


def fit_inputs(name: str) -> np.ndarray:
    """Rows of fit case ``name``: noisy points around a sum grid."""
    cards, rows, features, dtype = FIT_CASES[name]
    rng = np.random.RandomState(rows + features)
    thetas = [rng.uniform(-4.0, 4.0, size=(h, features)) for h in cards]
    cells = rng.randint(0, int(np.prod(cards)), size=rows)
    X = np.sum([t[i] for t, i in
                zip(thetas, np.unravel_index(cells, cards))], axis=0)
    return (X + 0.5 * rng.standard_normal(X.shape)).astype(dtype)


def _stream_model(name: str, **extra):
    from repro.core import MiniBatchKhatriRaoKMeans

    case = STREAM_CASES[name]
    return MiniBatchKhatriRaoKMeans(
        case["cards"], aggregator=case.get("aggregator", "sum"),
        batch_size=case["batch"], dtype=case["dtype"],
        update=case.get("update", "auto"), random_state=5, n_threads=1,
        **extra,
    )


def stream_arrays(name: str) -> dict:
    """The fixture arrays of stream case ``name``."""
    case = STREAM_CASES[name]
    X, weights, ids = stream_inputs(name)
    stats = []
    if case["mode"] == "fit":
        model = _stream_model(
            name, max_steps=STEPS, reassignment_tol=0.0, pruning="bounds",
            callback=lambda restart, step: stats.append(
                model.last_batch_stats_
            ),
        )
        model.fit(X, sample_weight=weights)
    else:
        model = _stream_model(name)
        for step, batch_ids in enumerate(ids):
            indexed = case["mode"] == "indexed" or (
                case["mode"] == "mixed" and step % 2 == 0
            )
            model.partial_fit(
                X[batch_ids],
                sample_weight=None if weights is None else weights[batch_ids],
                index=batch_ids if indexed else None,
            )
            stats.append(model.last_batch_stats_)
    prefix = f"stream_{name}__"
    arrays = {
        f"{prefix}{field}": np.array([getattr(s, field) for s in stats],
                                     dtype=np.float64)
        for field in _STATS_SCALARS
    }
    arrays[f"{prefix}labels"] = np.stack([s.labels for s in stats])
    for q in range(len(case["cards"])):
        arrays[f"{prefix}drift{q}"] = np.stack(
            [s.drift_norms[q] for s in stats]
        )
        arrays[f"{prefix}theta{q}"] = model.protocentroids_[q]
        arrays[f"{prefix}counts{q}"] = model._counts[q]
    state = model._stream_state if case["mode"] != "fit" else None
    if case["mode"] == "fit":
        arrays[f"{prefix}fit_labels"] = model.labels_
        arrays[f"{prefix}fit_inertia"] = np.float64(model.inertia_)
    if state is not None:
        for key, value in state.state_arrays().items():
            arrays[f"{prefix}sb_{key}"] = value
        for q, cum in enumerate(state.cum):
            arrays[f"{prefix}sb_cum{q}"] = cum
        arrays[f"{prefix}sb_cum_max"] = np.float64(state.cum_max)
    return arrays


def fit_arrays(name: str) -> dict:
    """The fixture arrays of fit case ``name``."""
    import warnings

    from repro import KhatriRaoKMeans

    cards, _, _, dtype = FIT_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = KhatriRaoKMeans(
            cards, n_init=1, max_iter=40, pruning="bounds", dtype=dtype,
            random_state=2, n_threads=2,
        ).fit(fit_inputs(name))
    prefix = f"fit_{name}__"
    arrays = {
        f"{prefix}labels": model.labels_,
        f"{prefix}inertia": np.float64(model.inertia_),
        f"{prefix}n_iter": np.int64(model.n_iter_),
        f"{prefix}fractions": np.asarray(model.reassignment_fractions_,
                                         dtype=np.float64),
    }
    for q, theta in enumerate(model.protocentroids_):
        arrays[f"{prefix}theta{q}"] = theta
    return arrays


def data_digest() -> np.ndarray:
    """Sum and first row of every generated input, in case order."""
    parts = []
    for name in STREAM_CASES:
        X, weights, ids = stream_inputs(name)
        parts += [[X.astype(np.float64).sum()], X[0].astype(np.float64),
                  [float(np.sum(ids))]]
        if weights is not None:
            parts.append([weights.sum()])
    for name in FIT_CASES:
        X = fit_inputs(name)
        parts += [[X.astype(np.float64).sum()], X[0].astype(np.float64)]
    return np.concatenate([np.asarray(part, dtype=np.float64) for part in parts])


def main() -> None:
    arrays = {"data_digest": data_digest()}
    for name in STREAM_CASES:
        arrays.update(stream_arrays(name))
    for name in FIT_CASES:
        arrays.update(fit_arrays(name))
    np.savez_compressed(FIXTURE, **arrays)
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
