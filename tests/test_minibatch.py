"""Tests for mini-batch Khatri-Rao-k-Means."""

import numpy as np
import pytest

from repro import KhatriRaoKMeans, MiniBatchKhatriRaoKMeans
from repro.datasets import make_blobs, make_khatri_rao_blobs
from repro.exceptions import NotFittedError, ValidationError
from repro.metrics import adjusted_rand_index


class TestMiniBatch:
    def test_fit_shapes(self, blobs_grid_9):
        X, _, _ = blobs_grid_9
        model = MiniBatchKhatriRaoKMeans((3, 3), batch_size=32, max_steps=50,
                                         random_state=0).fit(X)
        assert model.centroids().shape == (9, 2)
        assert model.labels_.shape == (X.shape[0],)
        assert np.isfinite(model.inertia_)
        assert model.parameter_count() == 6 * 2
        assert model.n_clusters == 9

    def test_recovers_structured_data(self):
        X, y, _ = make_khatri_rao_blobs((3, 3), n_samples=600, aggregator="sum",
                                        cluster_std=0.05, random_state=1)
        best = np.inf
        best_ari = 0.0
        for seed in range(8):
            model = MiniBatchKhatriRaoKMeans(
                (3, 3), batch_size=128, max_steps=100, random_state=seed
            ).fit(X)
            if model.inertia_ < best:
                best = model.inertia_
                best_ari = adjusted_rand_index(y, model.labels_)
        assert best_ari > 0.8

    def test_comparable_to_full_batch(self):
        X, _ = make_blobs(800, n_clusters=16, random_state=2)
        full = KhatriRaoKMeans((4, 4), n_init=5, random_state=0).fit(X)
        mini_inertias = [
            MiniBatchKhatriRaoKMeans((4, 4), batch_size=128, max_steps=150,
                                     random_state=seed).fit(X).inertia_
            for seed in range(5)
        ]
        assert min(mini_inertias) < 3.0 * full.inertia_

    def test_product_aggregator(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.5, 3.0, size=(400, 3))
        model = MiniBatchKhatriRaoKMeans((2, 3), aggregator="product",
                                         batch_size=64, max_steps=60,
                                         random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_partial_fit_streaming(self):
        X, _ = make_blobs(500, n_clusters=9, random_state=4)
        model = MiniBatchKhatriRaoKMeans((3, 3), batch_size=64, random_state=0)
        for start in range(0, 500, 100):
            model.partial_fit(X[start : start + 100])
        assert model.n_steps_ == 5
        labels = model.predict(X)
        assert labels.shape == (500,)

    def test_convergence_counter(self, blobs_grid_9):
        X, _, _ = blobs_grid_9
        model = MiniBatchKhatriRaoKMeans((3, 3), batch_size=64, max_steps=500,
                                         reassignment_tol=1e-2,
                                         random_state=0).fit(X)
        assert model.n_steps_ <= 500

    def test_not_fitted(self):
        model = MiniBatchKhatriRaoKMeans((2, 2))
        with pytest.raises(NotFittedError):
            model.predict(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            model.centroids()

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            MiniBatchKhatriRaoKMeans((2, 0))
        with pytest.raises(ValidationError):
            MiniBatchKhatriRaoKMeans((2, 2), batch_size=0)

    def test_single_set(self):
        X, _ = make_blobs(300, n_clusters=4, random_state=5)
        model = MiniBatchKhatriRaoKMeans((4,), batch_size=64, max_steps=80,
                                         random_state=0).fit(X)
        assert model.centroids().shape == (4, 2)


class TestFitAfterPartialFit:
    """``fit`` is a fresh run whatever ``partial_fit`` did before: the step
    count restarts, so every published ``BatchStats`` and the model match
    a fresh estimator's."""

    @staticmethod
    def _fit_trace(model, X):
        trace = []

        def note(restart_index, step):
            stats = model.last_batch_stats_
            trace.append((stats.step, stats.to_dict(), stats.labels.tobytes()))

        model.callback = note
        model.fit(X)
        return trace

    def test_fit_after_partial_fit_matches_a_fresh_fit(self):
        X, _ = make_blobs(400, n_features=2, n_clusters=9, random_state=2)
        fresh = MiniBatchKhatriRaoKMeans((3, 3), batch_size=32, max_steps=12,
                                         random_state=0)
        reference = self._fit_trace(fresh, X)

        used = MiniBatchKhatriRaoKMeans((3, 3), batch_size=32, max_steps=12,
                                        random_state=0)
        for start in range(0, 7 * 20, 20):
            used.partial_fit(X[start:start + 20])
        assert used.n_steps_ == 7
        trace = self._fit_trace(used, X)

        assert [step for step, _, _ in reference] == list(
            range(1, len(reference) + 1)
        )
        assert trace == reference
        assert used.n_steps_ == fresh.n_steps_
        assert used.inertia_ == fresh.inertia_
        assert np.array_equal(used.labels_, fresh.labels_)
        for got, want in zip(used.protocentroids_, fresh.protocentroids_):
            assert got.tobytes() == want.tobytes()
