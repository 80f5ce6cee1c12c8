"""Library warnings name the user's line, however deep the library call.

A ``ConvergenceWarning`` or ``DtypeFallbackWarning`` raised under a nested
fit (a deep estimator seeding its centroids, G-means splitting a cluster)
or under a front-end estimator must be attributed to the first frame
outside the ``repro`` package, never to a library file.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro import KhatriRaoKMeans
from repro.core.gmeans import GMeans
from repro.datasets import make_blobs
from repro.deep import KhatriRaoDKM
from repro.exceptions import ConvergenceWarning, DtypeFallbackWarning
from repro.linalg.aggregators import SumAggregator


class Float64OnlySum(SumAggregator):
    """A sum aggregator that never opted into float32."""

    working_dtypes = (np.dtype(np.float64),)


def _caught(category, fit):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit()
    found = [w for w in caught if issubclass(w.category, category)]
    assert found, f"no {category.__name__} raised"
    return found


def test_nested_deep_fit_warns_at_the_fit_call():
    X, _ = make_blobs(300, n_features=16, n_clusters=4, cluster_std=0.5,
                      random_state=0)
    model = KhatriRaoDKM(
        (2, 2), aggregator="product", compress_autoencoder=False,
        hidden_dims=(32, 8), pretrain_epochs=4, clustering_epochs=4,
        batch_size=128, kmeans_n_init=3, random_state=0,
    )
    for w in _caught(ConvergenceWarning, lambda: model.fit(X)):
        assert w.filename == __file__
        assert str(w.message).startswith(
            "KhatriRaoDKM latent initialization: KhatriRaoKMeans did not "
            "converge in"
        )


def test_dtype_fallback_warns_at_the_fit_call():
    X = np.random.default_rng(0).normal(size=(120, 4))
    model = KhatriRaoKMeans(
        (3, 4), aggregator=Float64OnlySum(), n_init=1, random_state=0,
        dtype="float32",
    )
    for w in _caught(DtypeFallbackWarning, lambda: model.fit(X)):
        assert w.filename == __file__
    assert model.dtype_ == np.dtype(np.float64)


def test_kmeans_under_a_library_caller_warns_at_the_fit_call():
    X = np.random.default_rng(0).normal(size=(400, 3))
    model = GMeans(k_min=2, k_max=4, n_init=2, max_iter=1, random_state=0)
    for w in _caught(ConvergenceWarning, lambda: model.fit(X)):
        assert w.filename == __file__
        assert str(w.message) == "KMeans did not converge in 1 iterations"
