"""Tests for FkM and Khatri-Rao-FkM (Section 9.4, Figure 10)."""

import numpy as np
import pytest

from repro.datasets import federated_split, make_blobs, make_federated_digits
from repro.exceptions import NotFittedError, ValidationError
from repro.federated import (
    FederatedKMeans,
    KhatriRaoFederatedKMeans,
    communication_cost_bytes,
)


@pytest.fixture(scope="module")
def federated_blobs():
    X, y = make_blobs(600, n_features=4, n_clusters=9, cluster_std=0.3,
                      random_state=0)
    return federated_split(X, y, 5, alpha=1.0, random_state=0), X


class TestSplit:
    def test_partitions_all_samples(self):
        X, y = make_blobs(200, n_clusters=4, random_state=0)
        shards = federated_split(X, y, 4, random_state=0)
        assert sum(s[0].shape[0] for s in shards) == 200

    def test_every_client_nonempty(self):
        X, y = make_blobs(60, n_clusters=4, random_state=1)
        shards = federated_split(X, y, 10, alpha=0.1, random_state=0)
        assert all(s[0].shape[0] >= 1 for s in shards)

    def test_small_alpha_is_more_skewed(self):
        X, y = make_blobs(2000, n_clusters=10, random_state=2)

        def skew(alpha):
            shards = federated_split(X, y, 5, alpha=alpha, random_state=0)
            entropies = []
            for _, labels in shards:
                counts = np.bincount(labels.astype(int), minlength=10)
                p = counts[counts > 0] / counts.sum()
                entropies.append(-(p * np.log(p)).sum())
            return np.mean(entropies)

        assert skew(0.1) < skew(100.0)

    def test_invalid_alpha(self):
        X, y = make_blobs(50, n_clusters=2, random_state=0)
        with pytest.raises(ValidationError):
            federated_split(X, y, 2, alpha=0.0)

    def test_make_federated_digits(self):
        shards = make_federated_digits(3, 20, side=14, random_state=0)
        assert len(shards) == 3
        assert shards[0][0].shape[1] == 14 * 14


class TestCommunicationCost:
    def test_formula(self):
        # 10 vectors of 5 features to 3 clients for 2 rounds, float64.
        assert communication_cost_bytes(10, 5, 3, 2) == 10 * 5 * 8 * 3 * 2

    def test_kr_broadcast_is_cheaper(self):
        fkm = FederatedKMeans(36)
        kr = KhatriRaoFederatedKMeans((6, 6))
        assert kr.broadcast_vectors() < fkm.broadcast_vectors()


class TestFederatedKMeans:
    def test_fit_reduces_inertia(self, federated_blobs):
        shards, _ = federated_blobs
        model = FederatedKMeans(9, n_rounds=8, random_state=0).fit(shards)
        assert model.history_.inertia[-1] <= model.history_.inertia[0]

    def test_history_lengths(self, federated_blobs):
        shards, _ = federated_blobs
        model = FederatedKMeans(9, n_rounds=5, random_state=0).fit(shards)
        assert len(model.history_.inertia) == 5
        assert len(model.history_.communication_bytes) == 5
        # Communication accumulates linearly in rounds.
        bytes_per_round = model.history_.communication_bytes[0]
        assert model.history_.communication_bytes[-1] == 5 * bytes_per_round

    def test_predict(self, federated_blobs):
        shards, X = federated_blobs
        model = FederatedKMeans(9, n_rounds=3, random_state=0).fit(shards)
        labels = model.predict(X)
        assert labels.shape == (X.shape[0],)
        assert labels.max() < 9

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            FederatedKMeans(3).predict(np.ones((2, 2)))

    def test_rejects_empty_shards(self):
        with pytest.raises(ValidationError):
            FederatedKMeans(3).fit([])

    def test_rejects_mismatched_features(self):
        with pytest.raises(ValidationError):
            FederatedKMeans(2).fit(
                [(np.ones((5, 2)), None), (np.ones((5, 3)), None)]
            )


class TestKhatriRaoFederated:
    def test_fit_reduces_inertia(self, federated_blobs):
        shards, _ = federated_blobs
        model = KhatriRaoFederatedKMeans(
            (3, 3), aggregator="sum", n_rounds=8, random_state=0
        ).fit(shards)
        assert model.history_.inertia[-1] <= model.history_.inertia[0]

    def test_product_aggregator(self, federated_blobs):
        shards, _ = federated_blobs
        # Product aggregator on shifted-positive data.
        shifted = [(X - X.min() + 0.5, y) for X, y in
                   [(s[0], s[1]) for s in shards]]
        model = KhatriRaoFederatedKMeans(
            (3, 3), aggregator="product", n_rounds=5, random_state=0
        ).fit(shifted)
        assert np.isfinite(model.history_.inertia[-1])

    def test_kr_cheaper_communication_at_same_clusters(self, federated_blobs):
        """Figure 10's mechanism: same k, far less server→client traffic."""
        shards, _ = federated_blobs
        fkm = FederatedKMeans(9, n_rounds=4, random_state=0).fit(shards)
        kr = KhatriRaoFederatedKMeans((3, 3), aggregator="sum", n_rounds=4,
                                      random_state=0).fit(shards)
        assert kr.history_.communication_bytes[-1] < fkm.history_.communication_bytes[-1]
        assert kr.n_clusters == fkm.n_clusters

    def test_predict(self, federated_blobs):
        shards, X = federated_blobs
        model = KhatriRaoFederatedKMeans((3, 3), aggregator="sum", n_rounds=3,
                                         random_state=0).fit(shards)
        labels = model.predict(X)
        assert labels.max() < 9

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KhatriRaoFederatedKMeans((2, 2)).predict(np.ones((2, 2)))


@pytest.mark.parametrize("make", [
    lambda: FederatedKMeans(3, n_rounds=2, random_state=0),
    lambda: KhatriRaoFederatedKMeans((2, 2), n_rounds=2, random_state=0),
], ids=["fkm", "kr_fkm"])
class TestFederatedInputErrors:
    """Malformed shards and rows raise ValidationError, as every other
    estimator does, instead of fitting NaN or failing inside numpy."""

    def test_nan_in_a_shard(self, make):
        bad = np.ones((6, 3))
        bad[2, 1] = np.nan
        with pytest.raises(ValidationError, match="client shard 1"):
            make().fit([np.ones((6, 3)), bad])

    def test_predict_wrong_width(self, make):
        rng = np.random.default_rng(0)
        model = make().fit([rng.uniform(1, 2, (20, 3)) for _ in range(2)])
        with pytest.raises(ValidationError):
            model.predict(np.ones((5, 4)))

    def test_predict_one_dimensional_row(self, make):
        rng = np.random.default_rng(0)
        model = make().fit([rng.uniform(1, 2, (20, 3)) for _ in range(2)])
        with pytest.raises(ValidationError):
            model.predict(np.ones(3))
