"""G-Means: estimating k via Gaussianity testing (paper Section 8).

Section 8 lists G-Means [Hamerly & Elkan, 2003] alongside X-Means as an
established technique Khatri-Rao clustering composes with: "the number of
centroids is successively increased and the current parameterization is
evaluated ... by testing if certain distributional conditions are
fulfilled".  G-Means splits a cluster whenever its points, projected onto
the principal axis of a tentative 2-means split, fail an Anderson-Darling
normality test.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import check_array, check_positive_int, check_random_state
from ._distances import assign_to_nearest
from .kmeans import KMeans

__all__ = ["GMeans", "anderson_darling_rejects_gaussian"]

#: Anderson-Darling critical value at the 1e-4 significance level
#: (the stringent level G-Means recommends to avoid over-splitting).
_CRITICAL_VALUE = 1.8692


def anderson_darling_rejects_gaussian(
    values: np.ndarray, *, critical_value: float = _CRITICAL_VALUE
) -> bool:
    """True when a 1-D sample is significantly non-Gaussian.

    Standardizes the sample and compares the Anderson-Darling statistic
    (corrected for estimated mean/variance, as scipy reports it) against the
    given critical value.
    """
    values = np.asarray(values, dtype=float).ravel()
    n = values.size
    if n < 8:
        return False  # too few points to reject anything
    std = values.std(ddof=1)
    if std == 0:
        return False
    # Deferred: scipy.special costs ~0.3 s to import, which every
    # ``import repro`` (and so every serving process) would otherwise pay.
    from scipy.special import ndtr

    z = np.sort((values - values.mean()) / std)
    cdf = np.clip(ndtr(z), 1e-300, 1.0 - 1e-16)
    i = np.arange(1, n + 1)
    a_squared = -n - np.mean((2 * i - 1) * (np.log(cdf) + np.log(1.0 - cdf[::-1])))
    # Small-sample correction for estimated mean and variance
    # [D'Agostino & Stephens, 1986], as used by G-Means.
    corrected = a_squared * (1.0 + 0.75 / n + 2.25 / n**2)
    return bool(corrected > critical_value)


class GMeans:
    """G-Means: grow k by splitting non-Gaussian clusters.

    Parameters
    ----------
    k_min, k_max : int
        Initial and maximum number of clusters.
    critical_value : float
        Anderson-Darling threshold; larger values split less eagerly.
    n_init, max_iter : int
        Settings of the inner k-means runs.
    random_state : None, int or Generator

    Attributes
    ----------
    n_clusters_ : int
    cluster_centers_ : array (n_clusters_, m)
    labels_ : int array (n,)
    """

    def __init__(
        self,
        *,
        k_min: int = 1,
        k_max: int = 20,
        critical_value: float = _CRITICAL_VALUE,
        n_init: int = 4,
        max_iter: int = 100,
        random_state=None,
    ) -> None:
        self.k_min = check_positive_int(k_min, "k_min")
        self.k_max = check_positive_int(k_max, "k_max", minimum=self.k_min)
        self.critical_value = float(critical_value)
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.random_state = random_state
        self.n_clusters_: Optional[int] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None

    def fit(self, X) -> "GMeans":
        """Grow the model by Gaussianity-rejected splits."""
        X = check_array(X, min_samples=self.k_min)
        rng = check_random_state(self.random_state)
        model = KMeans(self.k_min, n_init=self.n_init, max_iter=self.max_iter,
                       random_state=rng).fit(X)
        centers = model.cluster_centers_
        labels = model.labels_

        improved = True
        while improved and centers.shape[0] < self.k_max:
            improved = False
            next_centers = []
            for idx in range(centers.shape[0]):
                points = X[labels == idx]
                split = self._try_split(points, rng)
                if split is not None and centers.shape[0] + len(next_centers) < self.k_max:
                    next_centers.extend(split)
                    improved = True
                else:
                    next_centers.append(centers[idx])
            centers = np.vstack(next_centers)
            # Warm-started Lloyd refinement.
            labels, _ = assign_to_nearest(X, centers)
            for _ in range(self.max_iter):
                counts = np.bincount(labels, minlength=centers.shape[0])
                sums = np.zeros_like(centers)
                np.add.at(sums, labels, X)
                non_empty = counts > 0
                new_centers = centers.copy()
                new_centers[non_empty] = sums[non_empty] / counts[non_empty, None]
                if np.allclose(new_centers, centers, atol=1e-7):
                    centers = new_centers
                    break
                centers = new_centers
                labels, _ = assign_to_nearest(X, centers)

        self.cluster_centers_ = centers
        self.labels_, _ = assign_to_nearest(X, centers)
        self.n_clusters_ = centers.shape[0]
        return self

    def _try_split(self, points: np.ndarray, rng: np.random.Generator):
        if points.shape[0] < 16:
            return None
        child = KMeans(2, n_init=self.n_init, max_iter=self.max_iter,
                       random_state=rng).fit(points)
        direction = child.cluster_centers_[1] - child.cluster_centers_[0]
        norm = np.linalg.norm(direction)
        if norm == 0:
            return None
        projection = points @ (direction / norm)
        if anderson_darling_rejects_gaussian(
            projection, critical_value=self.critical_value
        ):
            return [child.cluster_centers_[0], child.cluster_centers_[1]]
        return None
