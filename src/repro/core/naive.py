"""Naïve two-phase Khatri-Rao clustering (paper Section 5).

Phase 1 runs an unconstrained clustering algorithm (k-Means) to obtain
``h_1 · h_2`` centroids.  Phase 2 post-processes those centroids with
coordinate descent, alternating the closed-form updates of Eq. 8 to find the
protocentroid sets whose Khatri-Rao aggregation best approximates them.

The paper uses this baseline to demonstrate *why* the joint optimization of
Khatri-Rao-k-Means is needed: centroids found without the Khatri-Rao
constraint "may accurately describe the dataset, yet be arbitrarily far from
a Khatri-Rao structure", so imposing the structure afterwards can destroy
the summary's accuracy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    check_array,
    check_cardinalities,
    check_positive_int,
    check_random_state,
)
from ..exceptions import NotFittedError, ValidationError
from ..linalg import get_aggregator, khatri_rao_combine, num_combinations
from ._distances import assign_to_nearest
from .kmeans import KMeans

__all__ = ["decompose_centroids", "NaiveKhatriRao"]

_EPSILON = 1e-12


def _update_set(
    centroids_grid: np.ndarray,
    thetas: List[np.ndarray],
    set_index: int,
    aggregator,
) -> np.ndarray:
    """Closed-form coordinate-descent update of one protocentroid set (Eq. 8).

    ``centroids_grid`` has shape ``(h_1, ..., h_p, m)``; the update for the
    ``j``-th protocentroid of set ``q`` aggregates all centroids whose ``q``-th
    tuple index equals ``j`` against the other sets' current protocentroids.
    """
    p = len(thetas)
    m = centroids_grid.shape[-1]
    h_q = thetas[set_index].shape[0]
    # rest[j_1, ..., j_p, :] = aggregation of every set except set_index.
    grids = []
    for l in range(p):
        if l == set_index:
            continue
        shape = [1] * p + [m]
        shape[l] = thetas[l].shape[0]
        grids.append(thetas[l].reshape(shape))
    if grids:
        rest = grids[0]
        for grid in grids[1:]:
            rest = aggregator.pair(rest, grid)
        rest = np.broadcast_to(rest, centroids_grid.shape)
    else:
        rest = aggregator.identity(centroids_grid.shape)

    axes = tuple(l for l in range(p) if l != set_index)
    numerator, denominator = aggregator.update_terms(centroids_grid, rest)
    numerator = np.sum(numerator, axis=axes)
    if denominator is None:
        return numerator / float(centroids_grid.size // (h_q * m))
    denominator = np.sum(denominator, axis=axes)
    updated = thetas[set_index].copy()
    safe = denominator > _EPSILON
    updated[safe] = numerator[safe] / denominator[safe]
    return updated


def decompose_centroids(
    centroids: np.ndarray,
    cardinalities: Sequence[int],
    *,
    aggregator="product",
    max_iter: int = 5000,
    tol: float = 1e-4,
    random_state=None,
) -> Tuple[List[np.ndarray], float]:
    """Approximate ``centroids`` by a Khatri-Rao aggregation of protocentroids.

    Alternates the closed-form updates of Eq. 8 over the protocentroid sets
    until the total squared approximation error improves by less than ``tol``
    or ``max_iter`` sweeps are reached (defaults follow Appendix B).

    Parameters
    ----------
    centroids : array of shape (∏ h_q, m)
        Flat centroid matrix in C-order over the tuple indices.
    cardinalities : sequence of int
        Target set sizes ``(h_1, ..., h_p)``.

    Returns
    -------
    (thetas, error)
        Protocentroid sets and the final sum of squared differences.
    """
    cards = check_cardinalities(cardinalities)
    agg = get_aggregator(aggregator)
    centroids = check_array(centroids, name="centroids")
    k = num_combinations(cards)
    if centroids.shape[0] != k:
        raise ValidationError(
            f"centroids has {centroids.shape[0]} rows but cardinalities {cards} "
            f"imply {k}"
        )
    m = centroids.shape[1]
    rng = check_random_state(random_state)
    grid = centroids.reshape(*cards, m)

    # Initialize protocentroids by splitting slice-averages of the grid, so
    # the starting point is already adapted to the target centroids.
    thetas: List[np.ndarray] = []
    for q, h in enumerate(cards):
        axes = tuple(l for l in range(len(cards)) if l != q)
        slice_means = grid.mean(axis=axes)
        block = np.empty((h, m), dtype=float)
        for j in range(h):
            block[j] = agg.split(slice_means[j], len(cards))[q]
        # Break ties between identical slices.
        block += 1e-3 * rng.normal(size=block.shape) * (np.std(centroids) or 1.0)
        thetas.append(block)

    previous_error = np.inf
    for _ in range(check_positive_int(max_iter, "max_iter")):
        for q in range(len(cards)):
            thetas[q] = _update_set(grid, thetas, q, agg)
        approx = khatri_rao_combine(thetas, agg)
        error = float(np.sum((approx - centroids) ** 2))
        if previous_error - error <= tol:
            break
        previous_error = error
    approx = khatri_rao_combine(thetas, agg)
    error = float(np.sum((approx - centroids) ** 2))
    return thetas, error


class NaiveKhatriRao:
    """Two-phase naïve Khatri-Rao clustering baseline (Section 5).

    Parameters mirror :class:`~repro.core.KhatriRaoKMeans` where applicable;
    ``decomposition_max_iter`` / ``decomposition_tol`` control the phase-2
    coordinate descent (Appendix B defaults: 5000 iterations, 1e-4).

    Attributes
    ----------
    initial_centroids_ : array of shape (∏ h_q, m)
        Unconstrained k-Means centroids from phase 1.
    protocentroids_ : list of arrays
        Phase-2 decomposition.
    decomposition_error_ : float
        Squared error between phase-1 centroids and their KR approximation.
    labels_, inertia_ : final assignment to the *reconstructed* centroids.
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        aggregator="product",
        n_init: int = 10,
        max_iter: int = 200,
        tol: float = 1e-4,
        decomposition_max_iter: int = 5000,
        decomposition_tol: float = 1e-4,
        random_state=None,
    ) -> None:
        self.cardinalities = check_cardinalities(cardinalities)
        self.aggregator = get_aggregator(aggregator)
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.decomposition_max_iter = check_positive_int(
            decomposition_max_iter, "decomposition_max_iter"
        )
        self.decomposition_tol = float(decomposition_tol)
        self.random_state = random_state

        self.initial_centroids_: Optional[np.ndarray] = None
        self.protocentroids_: Optional[List[np.ndarray]] = None
        self.decomposition_error_: float = np.inf
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf

    @property
    def n_clusters(self) -> int:
        """Number of centroids targeted in phase 1, ``∏ h_q``."""
        return num_combinations(self.cardinalities)

    def fit(self, X) -> "NaiveKhatriRao":
        """Run both phases: k-Means, then coordinate-descent decomposition."""
        X = check_array(X, min_samples=self.n_clusters)
        rng = check_random_state(self.random_state)
        kmeans = KMeans(
            self.n_clusters,
            n_init=self.n_init,
            max_iter=self.max_iter,
            tol=self.tol,
            random_state=rng,
        ).fit(X)
        self.initial_centroids_ = kmeans.cluster_centers_
        self.protocentroids_, self.decomposition_error_ = decompose_centroids(
            self.initial_centroids_,
            self.cardinalities,
            aggregator=self.aggregator,
            max_iter=self.decomposition_max_iter,
            tol=self.decomposition_tol,
            random_state=rng,
        )
        centroids = self.centroids()
        self.labels_, distances = assign_to_nearest(X, centroids)
        self.inertia_ = float(distances.sum())
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return labels under the reconstructed centroids."""
        return self.fit(X).labels_

    def centroids(self) -> np.ndarray:
        """Materialize the reconstructed (KR-structured) centroids."""
        if self.protocentroids_ is None:
            raise NotFittedError("NaiveKhatriRao is not fitted yet; call fit first")
        return khatri_rao_combine(self.protocentroids_, self.aggregator)

    def parameter_count(self) -> int:
        """Scalars stored by the final summary: ``(∑ h_q) · m``."""
        if self.protocentroids_ is None:
            raise NotFittedError("NaiveKhatriRao is not fitted yet; call fit first")
        return int(sum(theta.size for theta in self.protocentroids_))
