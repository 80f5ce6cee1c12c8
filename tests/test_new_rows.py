"""Entry points taking new rows reject a wrong feature count with a typed
error naming both widths, instead of numpy's raw shape mismatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro import KhatriRaoKMeans, KMeans, MiniBatchKhatriRaoKMeans
from repro.exceptions import ValidationError


def _fitted(kind):
    X = np.random.default_rng(0).normal(size=(60, 3))
    if kind == "kmeans":
        return KMeans(4, n_init=1, random_state=0).fit(X)
    if kind == "kr_kmeans":
        return KhatriRaoKMeans((2, 2), n_init=1, random_state=0).fit(X)
    return MiniBatchKhatriRaoKMeans((2, 2), batch_size=16, max_steps=5,
                                    random_state=0).fit(X)


@pytest.mark.parametrize("kind, method", [
    ("kmeans", "predict"),
    ("kmeans", "transform"),
    ("kmeans", "score"),
    ("kr_kmeans", "predict"),
    ("minibatch", "predict"),
    ("minibatch", "partial_fit"),
])
def test_wrong_feature_count_is_typed(kind, method):
    model = _fitted(kind)
    wide = np.ones((5, 4))
    with pytest.raises(
        ValidationError, match="X has 4 features, model was fitted with 3"
    ):
        getattr(model, method)(wide)


def test_first_partial_fit_sets_the_width():
    model = MiniBatchKhatriRaoKMeans((2, 2), random_state=0)
    model.partial_fit(np.random.default_rng(1).normal(size=(8, 5)))
    with pytest.raises(ValidationError, match="model was fitted with 5"):
        model.partial_fit(np.ones((8, 3)))
