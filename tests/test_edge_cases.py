"""Edge-case and failure-injection tests across the core estimators."""

import warnings

import numpy as np
import pytest

from repro import KhatriRaoKMeans, KMeans, NaiveKhatriRao
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.linalg import khatri_rao_combine


class TestDegenerateData:
    def test_kr_on_constant_data(self):
        X = np.ones((50, 3))
        model = KhatriRaoKMeans((2, 2), n_init=2, random_state=0).fit(X)
        assert model.inertia_ == pytest.approx(0.0, abs=1e-10)

    def test_kr_on_single_feature(self):
        rng = np.random.default_rng(0)
        X = np.sort(rng.normal(size=(60, 1)), axis=0)
        model = KhatriRaoKMeans((2, 2), n_init=5, random_state=0).fit(X)
        assert model.centroids().shape == (4, 1)
        assert np.isfinite(model.inertia_)

    def test_kr_with_negative_data_product_aggregator(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(80, 3))  # mixed signs
        model = KhatriRaoKMeans((2, 2), aggregator="product", n_init=5,
                                random_state=0).fit(X)
        assert np.isfinite(model.inertia_)
        assert np.all(np.isfinite(model.centroids()))

    def test_kr_more_protocentroids_than_useful(self):
        # 4x4 = 16 representable centroids on 3-cluster data: most centroids
        # end up empty and are re-seeded; the fit must still terminate.
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(c, 0.05, (15, 2)) for c in (0.0, 5.0, 10.0)])
        model = KhatriRaoKMeans((4, 4), n_init=2, max_iter=50,
                                random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_kmeans_on_duplicated_rows_k_too_large(self):
        X = np.repeat(np.arange(3.0)[:, None], 10, axis=0)
        model = KMeans(3, n_init=2, random_state=0).fit(X)
        assert model.inertia_ == pytest.approx(0.0, abs=1e-12)

    def test_cardinality_one_sets(self):
        # (1, k) degenerates to k centroids shifted by one shared vector.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        model = KhatriRaoKMeans((1, 4), n_init=5, random_state=0).fit(X)
        assert model.centroids().shape == (4, 2)
        km = KMeans(4, init="random", n_init=5, random_state=0).fit(X)
        # Same expressive power as plain 4-means.
        assert model.inertia_ == pytest.approx(km.inertia_, rel=0.05)

    def test_min_samples_guard(self):
        with pytest.raises(ValidationError):
            KhatriRaoKMeans((5, 2)).fit(np.ones((3, 2)))


class TestNumericalRobustness:
    def test_kr_with_huge_magnitudes(self):
        rng = np.random.default_rng(4)
        X = 1e8 * rng.normal(size=(60, 2))
        model = KhatriRaoKMeans((2, 2), n_init=3, random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_kr_with_tiny_magnitudes(self):
        rng = np.random.default_rng(5)
        X = 1e-8 * rng.normal(size=(60, 2))
        model = KhatriRaoKMeans((2, 2), n_init=3, random_state=0).fit(X)
        assert np.isfinite(model.inertia_)

    def test_product_update_with_zero_protocentroids(self):
        # A zero protocentroid makes the product denominator vanish; the
        # guarded update must keep the previous value rather than emit NaN.
        model = KhatriRaoKMeans((2, 2), aggregator="product", random_state=0)
        rng = np.random.default_rng(6)
        X = rng.uniform(0.5, 1.5, size=(40, 2))
        thetas = [np.array([[0.0, 0.0], [1.0, 1.0]]),
                  rng.uniform(0.5, 1.5, size=(2, 2))]
        labels, _ = model._assign(X, thetas, True)
        set_labels = model.set_assignments(labels)
        updated = model._update_protocentroids(X, thetas, set_labels, rng)
        for theta in updated:
            assert np.all(np.isfinite(theta))

    def test_naive_with_tol_zero(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.5, 2.0, size=(60, 2))
        model = NaiveKhatriRao((2, 2), decomposition_max_iter=50,
                               decomposition_tol=0.0, n_init=2,
                               random_state=0).fit(X)
        assert np.isfinite(model.inertia_)


class TestConsistencyInvariants:
    @pytest.mark.parametrize("aggregator", ["sum", "product"])
    def test_refit_idempotence(self, aggregator, blobs_grid_9):
        X, _, _ = blobs_grid_9
        model = KhatriRaoKMeans((3, 3), aggregator=aggregator, n_init=3,
                                random_state=11)
        first = model.fit(X).inertia_
        second = model.fit(X).inertia_
        assert first == pytest.approx(second)

    def test_centroids_invariant_under_set_reordering(self):
        # Swapping the two protocentroid sets permutes centroids but yields
        # the same *set* of centroids for commutative aggregators.
        rng = np.random.default_rng(8)
        t1, t2 = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        a = khatri_rao_combine([t1, t2], "sum")
        b = khatri_rao_combine([t2, t1], "sum")
        a_sorted = a[np.lexsort(a.T)]
        b_sorted = b[np.lexsort(b.T)]
        np.testing.assert_allclose(a_sorted, b_sorted)

    def test_inertia_never_increases_with_more_protocentroids(self, blobs_grid_9):
        X, _, _ = blobs_grid_9
        small = KhatriRaoKMeans((2, 2), n_init=10, random_state=0).fit(X)
        large = KhatriRaoKMeans((3, 3), n_init=10, random_state=0).fit(X)
        assert large.inertia_ <= small.inertia_ * 1.05

    def test_labels_stable_under_predict_roundtrip(self, blobs_grid_9):
        X, _, _ = blobs_grid_9
        model = KhatriRaoKMeans((3, 3), n_init=5, random_state=0).fit(X)
        once = model.predict(X)
        twice = model.predict(X)
        np.testing.assert_array_equal(once, twice)


class TestConvergenceWarning:
    """A restart that hits ``max_iter`` warns once, from ``fit`` on the
    calling thread, pointing at the user's ``fit`` call — also when the
    restarts ran on executor threads (``n_jobs``)."""

    @pytest.mark.parametrize("n_jobs", [None, 2])
    @pytest.mark.parametrize(
        "estimator, shape", [(KMeans, 8), (KhatriRaoKMeans, (3, 3))]
    )
    def test_points_at_the_fit_call(self, estimator, shape, n_jobs):
        X = np.random.default_rng(0).normal(size=(200, 4))
        model = estimator(
            shape, max_iter=1, n_init=3, random_state=0, n_jobs=n_jobs
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model.fit(X)
        convergence = [
            w for w in caught if issubclass(w.category, ConvergenceWarning)
        ]
        assert len(convergence) == 3  # one per restart
        for w in convergence:
            assert w.filename == __file__
            assert str(w.message) == (
                f"{estimator.__name__} did not converge in 1 iterations"
            )

    def test_converged_fit_is_silent(self):
        X = np.random.default_rng(0).normal(size=(200, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            KhatriRaoKMeans((2, 2), n_init=2, random_state=0).fit(X)
