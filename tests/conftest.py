"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


def pytest_configure(config):
    # Library warnings must name the caller's line (warn_at_call_site): one
    # attributed to a repro module points into the library, so fail on it.
    for category in ("ConvergenceWarning", "DtypeFallbackWarning"):
        config.addinivalue_line(
            "filterwarnings",
            f"error::repro.exceptions.{category}:repro(\\.|$)",
        )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blobs_small():
    """Well-separated 2-D blobs: 4 clusters on a 2x2 grid, 120 points."""
    from repro.datasets import make_blobs

    X, y = make_blobs(120, n_features=2, n_clusters=4, cluster_std=0.2, random_state=0)
    return X, y


@pytest.fixture
def blobs_grid_9():
    """9 clusters laid out as a 3x3 additive grid (exact KR(+) structure)."""
    rng = np.random.default_rng(7)
    theta1 = np.array([[0.0, 0.0], [0.0, 6.0], [0.0, 12.0]])
    theta2 = np.array([[0.0, 0.0], [6.0, 0.0], [12.0, 0.0]])
    centroids = (theta1[:, None, :] + theta2[None, :, :]).reshape(9, 2)
    X = np.vstack([c + 0.1 * rng.normal(size=(25, 2)) for c in centroids])
    y = np.repeat(np.arange(9), 25)
    order = rng.permutation(len(y))
    return X[order], y[order], (theta1, theta2)
