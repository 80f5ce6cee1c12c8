"""Data-summarization baselines beyond clustering (paper Section 2).

The paper's related-work section notes that centroid-based clustering is one
of several summarization strategies — "alternative approaches exist (e.g.,
aggregation, dimensionality reduction, or sampling)".  This module provides
those alternatives at *matched parameter budgets*, so Khatri-Rao summaries
can be compared against the whole design space, not just k-Means:

* :func:`sampling_summary` — uniform / D²-weighted data-point samples;
* :func:`pca_summary` — a rank-``r`` PCA sketch (mean + principal axes),
  evaluated by reconstruction error projected back to centroid-style
  assignment via its own reconstruction;
* :func:`compare_summaries` — budgeted comparison returning inertia per
  method, the quantity the paper uses throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .._validation import check_array, check_positive_int, check_random_state
from ..core import KhatriRaoKMeans, KMeans
from ..core._distances import assign_to_nearest, kmeans_plus_plus_init
from ..exceptions import ValidationError

__all__ = ["SummaryEvaluation", "sampling_summary", "pca_summary", "compare_summaries"]


@dataclass
class SummaryEvaluation:
    """Outcome of one summarization strategy at a parameter budget."""

    method: str
    parameters: int
    inertia: float


def sampling_summary(
    X: np.ndarray,
    n_vectors: int,
    *,
    weighted: bool = False,
    random_state=None,
) -> np.ndarray:
    """Summarize by ``n_vectors`` sampled data points.

    ``weighted=True`` uses k-means++-style D² sampling, which spreads the
    sample over the data's modes; otherwise sampling is uniform.
    """
    X = check_array(X)
    n_vectors = check_positive_int(n_vectors, "n_vectors")
    rng = check_random_state(random_state)
    if weighted:
        return kmeans_plus_plus_init(X, min(n_vectors, X.shape[0]), rng)
    indices = rng.choice(X.shape[0], size=min(n_vectors, X.shape[0]), replace=False)
    return X[indices].copy()


def pca_summary(X: np.ndarray, rank: int) -> Dict[str, np.ndarray]:
    """Rank-``rank`` PCA sketch: mean vector plus principal axes and scales.

    Stores ``(rank + 1)`` vectors of dimension ``m`` (mean + scaled axes);
    its reconstruction ``x̂ = mean + P Pᵀ (x − mean)`` summarizes the data by
    a subspace rather than by prototypes.
    """
    X = check_array(X)
    rank = check_positive_int(rank, "rank")
    rank = min(rank, min(X.shape) - 1) or 1
    mean = X.mean(axis=0)
    centered = X - mean
    _, singular_values, rows = np.linalg.svd(centered, full_matrices=False)
    axes = rows[:rank]
    return {"mean": mean, "axes": axes, "singular_values": singular_values[:rank]}


def _pca_reconstruction_error(X: np.ndarray, sketch: Dict[str, np.ndarray]) -> float:
    centered = X - sketch["mean"]
    projected = centered @ sketch["axes"].T @ sketch["axes"]
    return float(np.sum((centered - projected) ** 2))


def compare_summaries(
    X,
    cardinalities: Sequence[int],
    *,
    aggregator="sum",
    n_init: int = 10,
    random_state=None,
) -> List[SummaryEvaluation]:
    """Compare summarization strategies at the KR summary's parameter budget.

    The budget is ``∑ h_q`` vectors.  Returns evaluations (method, stored
    parameters, summed squared error) for: uniform sampling, D² sampling,
    k-Means with ``∑ h_q`` centroids, PCA with a matched vector count, and
    Khatri-Rao-k-Means representing ``∏ h_q`` centroids.

    Examples
    --------
    >>> from repro.datasets import make_blobs
    >>> X, _ = make_blobs(400, n_clusters=9, random_state=0)
    >>> rows = compare_summaries(X, (3, 3), n_init=3, random_state=0)
    >>> [row.method for row in rows][-1]
    'khatri-rao-k-means(3, 3)'
    """
    X = check_array(X)
    cards = tuple(int(h) for h in cardinalities)
    if any(h < 1 for h in cards):
        raise ValidationError("cardinalities must be positive")
    budget = sum(cards)
    m = X.shape[1]
    rng = check_random_state(random_state)
    results: List[SummaryEvaluation] = []

    for weighted, name in ((False, "uniform-sample"), (True, "d2-sample")):
        prototypes = sampling_summary(X, budget, weighted=weighted, random_state=rng)
        _, distances = assign_to_nearest(X, prototypes)
        results.append(SummaryEvaluation(name, prototypes.size, float(distances.sum())))

    kmeans = KMeans(budget, n_init=n_init, random_state=rng).fit(X)
    results.append(SummaryEvaluation(f"k-means({budget})", budget * m, kmeans.inertia_))

    sketch = pca_summary(X, max(1, budget - 1))
    pca_params = (sketch["axes"].shape[0] + 1) * m
    results.append(
        SummaryEvaluation("pca-sketch", pca_params, _pca_reconstruction_error(X, sketch))
    )

    kr = KhatriRaoKMeans(cards, aggregator=aggregator, n_init=n_init,
                         random_state=rng).fit(X)
    results.append(
        SummaryEvaluation(f"khatri-rao-k-means{cards}", kr.parameter_count(),
                          kr.inertia_)
    )
    return results
