"""Clustering-quality metrics (ARI, NMI, ACC, purity, inertia).

All metrics are implemented from first principles on top of a shared
contingency matrix; only the Hungarian assignment inside the unsupervised
clustering accuracy delegates to :func:`scipy.optimize.linear_sum_assignment`.
The two scipy imports happen at first use: importing ``scipy.special`` and
``scipy.optimize`` takes ~0.4 s, which ``import repro`` (and every serving
process) would otherwise pay for metrics it never computes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "contingency_matrix",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "unsupervised_clustering_accuracy",
    "purity",
    "inertia",
]


def _check_label_pair(labels_true, labels_pred) -> Tuple[np.ndarray, np.ndarray]:
    true = np.asarray(labels_true).ravel()
    pred = np.asarray(labels_pred).ravel()
    if true.shape[0] != pred.shape[0]:
        raise ValidationError(
            f"label arrays must have equal length, got {true.shape[0]} and {pred.shape[0]}"
        )
    if true.shape[0] == 0:
        raise ValidationError("label arrays must be non-empty")
    return true, pred


def contingency_matrix(labels_true, labels_pred) -> np.ndarray:
    """Contingency table ``C[i, j] = |true class i ∩ predicted cluster j|``."""
    true, pred = _check_label_pair(labels_true, labels_pred)
    _, true_idx = np.unique(true, return_inverse=True)
    _, pred_idx = np.unique(pred, return_inverse=True)
    n_true = true_idx.max() + 1
    n_pred = pred_idx.max() + 1
    table = np.zeros((n_true, n_pred), dtype=np.int64)
    np.add.at(table, (true_idx, pred_idx), 1)
    return table


def adjusted_rand_index(labels_true, labels_pred) -> float:
    """Adjusted Rand index [Hubert & Arabie, 1985].

    Chance-corrected agreement between two partitions; 1.0 for identical
    partitions, ~0.0 for independent ones.

    Examples
    --------
    >>> adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    """
    from scipy.special import comb  # deferred: see the module docstring

    table = contingency_matrix(labels_true, labels_pred)
    n = table.sum()
    sum_comb_cells = comb(table, 2).sum()
    sum_comb_rows = comb(table.sum(axis=1), 2).sum()
    sum_comb_cols = comb(table.sum(axis=0), 2).sum()
    total_pairs = comb(n, 2)
    if total_pairs == 0:
        return 1.0
    expected = sum_comb_rows * sum_comb_cols / total_pairs
    maximum = 0.5 * (sum_comb_rows + sum_comb_cols)
    denominator = maximum - expected
    if denominator == 0:
        # Both partitions are trivial (all singletons or one block).
        return 1.0
    return float((sum_comb_cells - expected) / denominator)


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p)))


def normalized_mutual_information(labels_true, labels_pred) -> float:
    """NMI with arithmetic-mean normalization [Kvalseth, 1987].

    ``NMI = 2 I(T; P) / (H(T) + H(P))`` — 1.0 for identical partitions.

    Examples
    --------
    >>> normalized_mutual_information([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    """
    table = contingency_matrix(labels_true, labels_pred).astype(float)
    n = table.sum()
    h_true = _entropy(table.sum(axis=1))
    h_pred = _entropy(table.sum(axis=0))
    if h_true == 0.0 and h_pred == 0.0:
        return 1.0
    # Mutual information from the joint table.
    pij = table / n
    pi = table.sum(axis=1, keepdims=True) / n
    pj = table.sum(axis=0, keepdims=True) / n
    mask = pij > 0
    mutual_information = float(np.sum(pij[mask] * np.log(pij[mask] / (pi @ pj)[mask])))
    denominator = 0.5 * (h_true + h_pred)
    if denominator == 0.0:
        return 0.0
    return float(np.clip(mutual_information / denominator, 0.0, 1.0))


def unsupervised_clustering_accuracy(labels_true, labels_pred) -> float:
    """Unsupervised clustering accuracy (ACC) [Yang et al., 2010].

    Best one-to-one mapping between predicted clusters and ground-truth
    classes (Hungarian algorithm), then plain accuracy under that mapping.

    Examples
    --------
    >>> unsupervised_clustering_accuracy([0, 0, 1, 1], [1, 1, 0, 0])
    1.0
    """
    table = contingency_matrix(labels_true, labels_pred)
    n = table.sum()
    # Pad to a square matrix so extra clusters / classes are handled.
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[: table.shape[0], : table.shape[1]] = table
    from scipy.optimize import linear_sum_assignment  # deferred

    row_ind, col_ind = linear_sum_assignment(-padded)
    return float(padded[row_ind, col_ind].sum() / n)


def purity(labels_true, labels_pred) -> float:
    """Cluster purity [Manning et al., 2008].

    Fraction of points correctly assigned after mapping each predicted
    cluster to its majority ground-truth class (a many-to-one mapping, so
    purity is not penalized for over-segmentation).

    Examples
    --------
    >>> purity([0, 0, 1, 1], [0, 0, 0, 1])
    0.75
    """
    table = contingency_matrix(labels_true, labels_pred)
    return float(table.max(axis=0).sum() / table.sum())


def inertia(X, labels, centroids) -> float:
    """Total squared Euclidean distance of points to their centroid (Eq. 1).

    Parameters
    ----------
    X : array of shape (n, m)
    labels : array of shape (n,)
        Cluster index of each point (row into ``centroids``).
    centroids : array of shape (k, m)
    """
    X = np.asarray(X, dtype=float)
    centroids = np.asarray(centroids, dtype=float)
    labels = np.asarray(labels).ravel().astype(int)
    if X.ndim != 2 or centroids.ndim != 2:
        raise ValidationError("X and centroids must be 2-D arrays")
    if X.shape[0] != labels.shape[0]:
        raise ValidationError("X and labels must have the same number of samples")
    if labels.min(initial=0) < 0 or (labels.size and labels.max() >= centroids.shape[0]):
        raise ValidationError("labels reference centroids that do not exist")
    differences = X - centroids[labels]
    return float(np.sum(differences**2))
