"""Integration tests for DKM/IDEC and their Khatri-Rao variants."""

import numpy as np
import pytest

from repro.datasets import make_blobs
from repro.deep import DKM, IDEC, KhatriRaoDKM, KhatriRaoIDEC, fit_compressed_autoencoder
from repro.nn.autoencoder import default_ranks
from repro.exceptions import NotFittedError, ValidationError
from repro.metrics import unsupervised_clustering_accuracy as acc

FAST = dict(hidden_dims=(32, 8), pretrain_epochs=4, clustering_epochs=4,
            batch_size=128, kmeans_n_init=3)


@pytest.fixture(scope="module")
def deep_blobs():
    return make_blobs(300, n_features=16, n_clusters=4, cluster_std=0.5,
                      random_state=0)


class TestDKM:
    def test_fit_recovers_blobs(self, deep_blobs):
        X, y = deep_blobs
        model = DKM(4, random_state=0, **FAST).fit(X)
        assert acc(y, model.labels_) > 0.9

    def test_attributes(self, deep_blobs):
        X, _ = deep_blobs
        model = DKM(4, random_state=0, **FAST).fit(X)
        assert model.centroids().shape == (4, 8)
        assert model.labels_.shape == (X.shape[0],)
        assert np.isfinite(model.inertia_)
        assert len(model.pretrain_loss_) == FAST["pretrain_epochs"]
        assert len(model.clustering_loss_) == FAST["clustering_epochs"]

    def test_predict_matches_labels(self, deep_blobs):
        X, _ = deep_blobs
        model = DKM(4, random_state=0, **FAST).fit(X)
        np.testing.assert_array_equal(model.predict(X), model.labels_)

    def test_transform_shape(self, deep_blobs):
        X, _ = deep_blobs
        model = DKM(4, random_state=0, **FAST).fit(X)
        assert model.transform(X).shape == (X.shape[0], 8)

    def test_not_fitted(self):
        model = DKM(3, **FAST)
        with pytest.raises(NotFittedError):
            model.predict(np.ones((2, 2)))
        with pytest.raises(NotFittedError):
            model.centroids()

    def test_result_bundle(self, deep_blobs):
        X, _ = deep_blobs
        model = DKM(4, random_state=0, **FAST).fit(X)
        result = model.result()
        assert result.parameter_ratio == pytest.approx(1.0)
        assert result.labels.shape == (X.shape[0],)


class TestKhatriRaoDKM:
    def test_fit_and_compression(self, deep_blobs):
        X, y = deep_blobs
        model = KhatriRaoDKM((2, 2), random_state=0, **FAST).fit(X)
        assert model.n_clusters == 4
        assert model.centroids().shape == (4, 8)
        assert acc(y, model.labels_) > 0.7
        # The KR variant must store fewer parameters than its dense bound.
        assert model.result().parameter_ratio < 1.0

    def test_protocentroid_parameters_trained(self, deep_blobs):
        X, _ = deep_blobs
        model = KhatriRaoDKM((2, 2), random_state=0, **FAST).fit(X)
        assert len(model.centroid_params_) == 2
        assert model.centroid_params_[0].shape == (2, 8)

    def test_without_autoencoder_compression(self, deep_blobs):
        X, _ = deep_blobs
        model = KhatriRaoDKM(
            (2, 2), compress_autoencoder=False, random_state=0, **FAST
        ).fit(X)
        assert np.isfinite(model.inertia_)

    def test_product_aggregator(self, deep_blobs):
        X, _ = deep_blobs
        model = KhatriRaoDKM(
            (2, 2), aggregator="product", compress_autoencoder=False,
            random_state=0, **FAST,
        ).fit(X)
        assert np.isfinite(model.inertia_)

    def test_mutually_exclusive_cluster_specs(self):
        with pytest.raises(ValidationError):
            DKM.__bases__[0](n_clusters=4, cardinalities=(2, 2))
        with pytest.raises(ValidationError):
            DKM.__bases__[0]()


class TestIDECVariants:
    def test_idec_recovers_blobs(self, deep_blobs):
        X, y = deep_blobs
        model = IDEC(4, random_state=0, **FAST).fit(X)
        assert acc(y, model.labels_) > 0.9

    def test_kr_idec(self, deep_blobs):
        X, y = deep_blobs
        model = KhatriRaoIDEC((2, 2), random_state=0, **FAST).fit(X)
        assert acc(y, model.labels_) > 0.7
        assert model.result().parameter_ratio < 1.0

    def test_fit_predict(self, deep_blobs):
        X, _ = deep_blobs
        labels = IDEC(4, random_state=0, **FAST).fit_predict(X)
        assert labels.shape == (X.shape[0],)


class TestCompressedAutoencoder:
    def test_default_ranks_cap_at_compression(self):
        ranks = default_ranks(100, (20, 5), base_rank=10)
        dims = [100, 20, 5]
        for i, rank in enumerate(ranks):
            d, m = dims[i], dims[i + 1]
            assert 2 * rank * (d + m) <= d * m or rank == 1

    def test_fit_compressed_returns_working_model(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 24))
        ae, history = fit_compressed_autoencoder(
            X, hidden_dims=(16, 4), epochs=4, batch_size=64,
            max_rank_multiplier=2, random_state=0,
        )
        assert ae.transform(X).shape == (150, 4)
        assert len(history) >= 4
        assert np.isfinite(ae.reconstruction_loss(X))

    def test_accepts_provided_dense_reference(self):
        from repro.nn import build_autoencoder

        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 12))
        dense = build_autoencoder(12, (8, 3), random_state=0)
        dense.pretrain(X, epochs=3, batch_size=50, random_state=0)
        ae, _ = fit_compressed_autoencoder(
            X, hidden_dims=(8, 3), epochs=3, batch_size=50,
            max_rank_multiplier=1, dense_reference=dense, random_state=0,
        )
        assert ae is not None
