"""Tests for BIC scoring, X-Means and Khatri-Rao X-Means (Section 8)."""

import numpy as np
import pytest

from repro.core import GMeans, KhatriRaoXMeans, KMeans, XMeans, bic_score
from repro.datasets import make_blobs
from repro.exceptions import NotFittedError


@pytest.fixture(scope="module")
def four_blobs():
    return make_blobs(240, n_features=2, n_clusters=4, cluster_std=0.2,
                      random_state=3)


class TestBIC:
    def test_prefers_true_k_over_underfit(self, four_blobs):
        X, _ = four_blobs
        scores = {}
        for k in (1, 2, 4):
            model = KMeans(k, n_init=5, random_state=0).fit(X)
            scores[k] = bic_score(X, model.labels_, model.cluster_centers_)
        assert scores[4] > scores[2] > scores[1]

    def test_penalizes_overfit(self, four_blobs):
        X, _ = four_blobs
        model4 = KMeans(4, n_init=5, random_state=0).fit(X)
        model40 = KMeans(40, n_init=5, random_state=0).fit(X)
        assert bic_score(X, model4.labels_, model4.cluster_centers_) > bic_score(
            X, model40.labels_, model40.cluster_centers_
        )

    def test_custom_parameter_count_reduces_penalty(self, four_blobs):
        X, _ = four_blobs
        model = KMeans(4, n_init=5, random_state=0).fit(X)
        full = bic_score(X, model.labels_, model.cluster_centers_)
        discounted = bic_score(
            X, model.labels_, model.cluster_centers_, n_parameters=4
        )
        assert discounted > full

    def test_degenerate_returns_neg_inf(self):
        X = np.ones((3, 2))
        assert bic_score(X, [0, 1, 2], np.ones((3, 2))) == -np.inf


class TestXMeans:
    def test_finds_approximately_true_k(self, four_blobs):
        X, _ = four_blobs
        model = XMeans(k_min=2, k_max=10, random_state=0).fit(X)
        assert 3 <= model.n_clusters_ <= 6

    def test_respects_k_max(self, four_blobs):
        X, _ = four_blobs
        model = XMeans(k_min=2, k_max=3, random_state=0).fit(X)
        assert model.n_clusters_ <= 3

    def test_attributes(self, four_blobs):
        X, _ = four_blobs
        model = XMeans(k_min=2, k_max=8, random_state=0).fit(X)
        assert model.cluster_centers_.shape == (model.n_clusters_, 2)
        assert model.labels_.shape == (X.shape[0],)
        assert np.isfinite(model.bic_)


@pytest.mark.parametrize("estimator", [XMeans, GMeans])
def test_growth_reaches_k_max(estimator):
    # Both k_min clusters split in the first pass: 2 -> 4, not 2 -> 3 (a
    # cap that counts the processed clusters twice stops at 3).
    X, _ = make_blobs(600, n_features=4, n_clusters=6, cluster_std=0.3,
                      random_state=4)
    model = estimator(k_min=2, k_max=4, n_init=2, max_iter=30,
                      random_state=9).fit(X)
    assert model.n_clusters_ == 4


class TestKhatriRaoXMeans:
    def test_grows_toward_true_structure(self):
        X, _ = make_blobs(300, n_features=2, n_clusters=9, cluster_std=0.15,
                          random_state=5)
        model = KhatriRaoXMeans(
            initial_cardinalities=(2, 2), max_vectors=8, n_init=3,
            random_state=0,
        ).fit(X)
        assert model.cardinalities_ is not None
        assert sum(model.cardinalities_) <= 8
        # Growth should have been accepted at least once for 9 blobs.
        assert np.prod(model.cardinalities_) > 4

    def test_history_recorded(self):
        X, _ = make_blobs(150, n_features=2, n_clusters=4, cluster_std=0.2,
                          random_state=6)
        model = KhatriRaoXMeans(
            initial_cardinalities=(2, 2), max_vectors=6, n_init=2,
            random_state=0,
        ).fit(X)
        assert len(model.history_) >= 1
        cards0, bic0 = model.history_[0]
        assert cards0 == (2, 2)
        assert np.isfinite(bic0)

    def test_predict(self):
        X, _ = make_blobs(150, n_features=2, n_clusters=4, cluster_std=0.2,
                          random_state=7)
        model = KhatriRaoXMeans(
            initial_cardinalities=(2, 2), max_vectors=5, n_init=2,
            random_state=0,
        ).fit(X)
        labels = model.predict(X)
        assert labels.shape == (X.shape[0],)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KhatriRaoXMeans().predict(np.ones((2, 2)))

    def test_allow_new_sets(self):
        X, _ = make_blobs(200, n_features=2, n_clusters=8, cluster_std=0.2,
                          random_state=8)
        model = KhatriRaoXMeans(
            initial_cardinalities=(2, 2), max_vectors=8, allow_new_sets=True,
            n_init=2, random_state=0,
        ).fit(X)
        assert model.cardinalities_ is not None
