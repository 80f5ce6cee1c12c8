"""Estimating the number of clusters (paper Section 8, "Choosing the number
of centroids").

The paper notes that Khatri-Rao clustering composes with established
techniques such as X-Means [Pelleg & Moore, 2000], where the number of
centroids is successively increased and each candidate parameterization is
scored with the Bayesian Information Criterion [Schwarz, 1978].  In
Khatri-Rao clustering, "increasing the number of clusters is equivalent to
either increasing the cardinality of one set of protocentroids or the number
of sets of protocentroids".

This module implements:

* :func:`bic_score` — BIC of a centroid model under the spherical
  equal-variance Gaussian assumption X-Means uses;
* :class:`XMeans` — top-down cluster splitting accepted by local BIC;
* :class:`KhatriRaoXMeans` — greedy growth of protocentroid-set
  cardinalities accepted by global BIC.
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
from ..exceptions import NotFittedError, relabel_convergence_warnings
from ._distances import assign_to_nearest
from ._update import update_protocentroids
from .kmeans import KMeans
from .kr_kmeans import KhatriRaoKMeans

__all__ = ["bic_score", "XMeans", "KhatriRaoXMeans"]


def bic_score(
    X: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    *,
    n_parameters: Optional[int] = None,
) -> float:
    """BIC of a centroid model (higher is better).

    Uses the X-Means formulation: a spherical Gaussian per cluster with a
    shared maximum-likelihood variance.  ``n_parameters`` defaults to the
    unconstrained count ``k·m + 1`` (centroid coordinates plus the shared
    variance); Khatri-Rao models pass their smaller protocentroid count,
    which is exactly how the paradigm helps model selection: the same
    likelihood is taxed less.
    """
    X = np.asarray(X, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    labels = np.asarray(labels).ravel().astype(int)
    n, m = X.shape
    k = centroids.shape[0]
    if n <= k:
        return -np.inf
    residual = X - centroids[labels]
    rss = float(np.sum(residual**2))
    variance = rss / (m * (n - k))
    if variance <= 0:
        variance = np.finfo(float).tiny
    counts = np.bincount(labels, minlength=k).astype(float)
    occupied = counts > 0
    # Log-likelihood of the spherical mixture with hard assignments.
    log_likelihood = float(
        np.sum(counts[occupied] * np.log(counts[occupied] / n))
        - 0.5 * n * m * np.log(2.0 * np.pi * variance)
        - 0.5 * m * (n - k)
    )
    if n_parameters is None:
        n_parameters = k * m + 1
    return log_likelihood - 0.5 * n_parameters * np.log(n)


def _refine(X, centers, max_iter: int, atol: float):
    """Warm-started Lloyd refinement through the one-set closed-form
    update, empty clusters left in place, until no center moves by more
    than ``atol``; returns the centers and their labels."""
    for _ in range(max_iter):
        labels, _ = assign_to_nearest(X, centers)
        (updated,) = update_protocentroids(
            X, [centers], labels[:, None], "sum",
            reseed=lambda theta, empty: None,
        )
        converged = np.allclose(updated, centers, atol=atol)
        centers = updated
        if converged:
            break
    return centers, assign_to_nearest(X, centers)[0]


class _SplitGrowth:
    """The growth loop X-Means and G-Means share: start from a
    ``k_min``-means fit, then pass over the clusters, replacing each by
    the two children ``_try_split(points, center, rng)`` returns while the
    model stays below ``k_max``, and refine all centers after every pass
    (:func:`_refine`, to the subclass's ``_atol``).  Growth stops once a
    pass splits nothing or ``k_max`` is reached.  The inner k-means
    fits' convergence warnings name the estimator the user called
    (``GMeans growth: KMeans did not converge in 1 iterations``)."""

    _atol: float

    def __init__(self, *, k_min, k_max, n_init, max_iter, random_state) -> None:
        self.k_min = check_positive_int(k_min, "k_min")
        self.k_max = check_positive_int(k_max, "k_max", minimum=self.k_min)
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.random_state = random_state
        self.n_clusters_: Optional[int] = None
        self.cluster_centers_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None

    def fit(self, X):
        """Grow the model by accepted splits, refitting after each pass."""
        X = check_array(X, min_samples=self.k_min)
        centers, labels = relabel_convergence_warnings(
            f"{type(self).__name__} growth", self._grow, X
        )
        self.cluster_centers_ = centers
        self.labels_ = labels
        self.n_clusters_ = centers.shape[0]
        return self

    def _grow(self, X):
        rng = check_random_state(self.random_state)
        model = KMeans(
            self.k_min, n_init=self.n_init, max_iter=self.max_iter, random_state=rng
        ).fit(X)
        centers, labels = model.cluster_centers_, model.labels_
        improved = True
        while improved and centers.shape[0] < self.k_max:
            improved = False
            grown: List[np.ndarray] = []
            for idx in range(centers.shape[0]):
                # The model holds ``grown`` plus the centers from ``idx``
                # on; a split adds one, so at ``k_max`` none is tried.
                split = None
                if len(grown) + centers.shape[0] - idx < self.k_max:
                    split = self._try_split(X[labels == idx], centers[idx], rng)
                if split is not None:
                    grown.extend(split)
                    improved = True
                else:
                    grown.append(centers[idx])
            centers, labels = _refine(X, np.vstack(grown), self.max_iter, self._atol)
        return centers, labels


class XMeans(_SplitGrowth):
    """X-Means: k-Means with BIC-driven cluster splitting.

    Starting from ``k_min`` clusters, each cluster is tentatively split in
    two by a local 2-means; the split is kept when the two-cluster BIC of
    the cluster's points beats the one-cluster BIC.  The process repeats
    until no split is accepted or ``k_max`` is reached.

    Attributes
    ----------
    n_clusters_ : int
    cluster_centers_ : array of shape (n_clusters_, m)
    labels_ : int array of shape (n,)
    bic_ : float — global BIC of the final model.
    """

    _atol = 1e-6

    def __init__(
        self,
        *,
        k_min: int = 2,
        k_max: int = 20,
        n_init: int = 4,
        max_iter: int = 100,
        random_state=None,
    ) -> None:
        super().__init__(
            k_min=k_min, k_max=k_max, n_init=n_init, max_iter=max_iter,
            random_state=random_state,
        )
        self.bic_: float = -np.inf

    def fit(self, X) -> "XMeans":
        """Grow the model by BIC-accepted splits and refit globally."""
        super().fit(X)
        self.bic_ = bic_score(X, self.labels_, self.cluster_centers_)
        return self

    def _try_split(
        self, points: np.ndarray, center: np.ndarray, rng: np.random.Generator
    ) -> Optional[List[np.ndarray]]:
        if points.shape[0] < 4:
            return None
        parent_labels = np.zeros(points.shape[0], dtype=np.int64)
        parent_bic = bic_score(points, parent_labels, center[None, :])
        child = KMeans(2, n_init=self.n_init, max_iter=self.max_iter, random_state=rng)
        child.fit(points)
        child_bic = bic_score(points, child.labels_, child.cluster_centers_)
        if child_bic > parent_bic:
            return [child.cluster_centers_[0], child.cluster_centers_[1]]
        return None


class KhatriRaoXMeans:
    """BIC-driven growth of Khatri-Rao protocentroid sets (Section 8).

    Starts from ``initial_cardinalities`` and greedily applies the move that
    most improves the global BIC among: incrementing the cardinality of one
    existing set, or (optionally) appending a new set of size 2.  The BIC is
    taxed by the *protocentroid* parameter count, so growth is cheaper than
    for unconstrained k-Means — the concrete benefit of the paradigm for
    model selection.

    Attributes
    ----------
    cardinalities_ : tuple of int
    model_ : fitted :class:`~repro.core.KhatriRaoKMeans`
    bic_ : float
    history_ : list of (cardinalities, bic) explored along the greedy path.
    """

    def __init__(
        self,
        *,
        initial_cardinalities: Sequence[int] = (2, 2),
        max_vectors: int = 24,
        allow_new_sets: bool = False,
        aggregator="sum",
        n_init: int = 4,
        max_iter: int = 100,
        random_state=None,
    ) -> None:
        self.initial_cardinalities = check_cardinalities(
            initial_cardinalities, name="initial_cardinalities"
        )
        self.max_vectors = check_positive_int(max_vectors, "max_vectors")
        self.allow_new_sets = bool(allow_new_sets)
        self.aggregator = aggregator
        self.n_init = check_positive_int(n_init, "n_init")
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.random_state = random_state

        self.cardinalities_: Optional[Tuple[int, ...]] = None
        self.model_: Optional[KhatriRaoKMeans] = None
        self.bic_: float = -np.inf
        self.history_: List[Tuple[Tuple[int, ...], float]] = []

    def fit(self, X) -> "KhatriRaoXMeans":
        """Greedily grow cardinalities while the global BIC improves."""
        X = check_array(X)
        rng = check_random_state(self.random_state)
        current = self.initial_cardinalities
        model, bic = self._evaluate(X, current, rng)
        self.history_ = [(current, bic)]

        while sum(current) < self.max_vectors:
            candidates = self._moves(current)
            best_candidate = None
            best_model = None
            best_bic = bic
            for candidate in candidates:
                if sum(candidate) > self.max_vectors:
                    continue
                cand_model, cand_bic = self._evaluate(X, candidate, rng)
                self.history_.append((candidate, cand_bic))
                if cand_bic > best_bic:
                    best_candidate, best_model, best_bic = candidate, cand_model, cand_bic
            if best_candidate is None:
                break
            current, model, bic = best_candidate, best_model, best_bic

        self.cardinalities_ = current
        self.model_ = model
        self.bic_ = bic
        return self

    def predict(self, X) -> np.ndarray:
        """Assign rows of ``X`` with the selected model."""
        if self.model_ is None:
            raise NotFittedError("KhatriRaoXMeans is not fitted yet; call fit first")
        return self.model_.predict(X)

    def _moves(self, cards: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        moves = []
        for q in range(len(cards)):
            grown = list(cards)
            grown[q] += 1
            moves.append(tuple(grown))
        if self.allow_new_sets:
            moves.append(tuple(list(cards) + [2]))
        # Deduplicate symmetric moves such as (3,2) vs (2,3).
        unique = []
        seen = set()
        for move in moves:
            key = tuple(sorted(move, reverse=True))
            if key not in seen:
                seen.add(key)
                unique.append(move)
        return unique

    def _evaluate(self, X, cards: Tuple[int, ...], rng) -> Tuple[KhatriRaoKMeans, float]:
        model = KhatriRaoKMeans(
            cards,
            aggregator=self.aggregator,
            n_init=self.n_init,
            max_iter=self.max_iter,
            random_state=rng,
        ).fit(X)
        centroids = model.centroids()
        n_parameters = model.parameter_count() + 1
        bic = bic_score(X, model.labels_, centroids, n_parameters=n_parameters)
        return model, bic
