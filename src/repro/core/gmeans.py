"""G-Means: estimating k via Gaussianity testing (paper Section 8).

Section 8 lists G-Means [Hamerly & Elkan, 2003] alongside X-Means as an
established technique Khatri-Rao clustering composes with: "the number of
centroids is successively increased and the current parameterization is
evaluated ... by testing if certain distributional conditions are
fulfilled".  G-Means splits a cluster whenever its points, projected onto
the principal axis of a tentative 2-means split, fail an Anderson-Darling
normality test.

G-Means shares X-Means' growth loop (``_SplitGrowth`` in
:mod:`repro.core.model_selection`); only the split test and the
refinement tolerance differ.  The refinement runs the one-set
closed-form update of :mod:`repro.core._update` until the centers move
less than 1e-7, and the next pass splits clusters by the labels of
those final centers.
"""

from __future__ import annotations

import numpy as np

from .kmeans import KMeans
from .model_selection import _SplitGrowth

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


class GMeans(_SplitGrowth):
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

    _atol = 1e-7

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
        super().__init__(
            k_min=k_min, k_max=k_max, n_init=n_init, max_iter=max_iter,
            random_state=random_state,
        )
        self.critical_value = float(critical_value)

    def _try_split(
        self, points: np.ndarray, center: np.ndarray, rng: np.random.Generator
    ):
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
