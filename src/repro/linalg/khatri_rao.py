"""Khatri-Rao operators over sets of vectors (paper Section 3).

Given ``p`` sets of protocentroids, stacked as matrices
``thetas[q] ∈ R^{h_q × m}``, the Khatri-Rao ``⊕`` operator produces the
``h_1 · h_2 · ... · h_p`` vectors obtained by applying ``⊕`` elementwise to
every combination of one vector per set.  The paper names the operator after
the Khatri-Rao matrix product [Khatri & Rao, 1968], which is recovered for
``⊕ = ×`` on column-partitioned matrices.

The flat ordering of combinations follows C-order (row-major) over the index
tuple ``(j_1, ..., j_p)``: the last set varies fastest.  This ordering is the
contract shared by the clustering code (centroid ``i`` ↔ tuple
:func:`flat_to_tuple`\\ ``(i)``) and must never change silently; use
:func:`tuple_to_flat` / :func:`flat_to_tuple` (and
:func:`flat_to_set_labels` for a whole label array) instead of ad-hoc
arithmetic.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .._validation import as_float_array, check_cardinalities, int_prod
from ..exceptions import ValidationError
from .aggregators import get_aggregator

__all__ = [
    "khatri_rao_combine",
    "khatri_rao_product",
    "khatri_rao_rows",
    "num_combinations",
    "tuple_to_flat",
    "flat_to_tuple",
    "flat_to_set_labels",
]


def num_combinations(cardinalities: Sequence[int]) -> int:
    """Number of centroids representable by sets of the given cardinalities.

    Examples
    --------
    >>> num_combinations((3, 3))
    9
    """
    cards = check_cardinalities(cardinalities)
    # int_prod, not np.prod: int64 wraps past 2**63 (e.g. eight sets of 256).
    return int_prod(cards)


def tuple_to_flat(indices: Sequence[int], cardinalities: Sequence[int]) -> int:
    """Map a tuple of per-set protocentroid indices to a flat centroid index.

    Uses C-order (last index fastest), matching
    :func:`khatri_rao_combine`'s output ordering.

    Examples
    --------
    >>> tuple_to_flat((1, 2), (3, 4))
    6
    """
    cards = check_cardinalities(cardinalities)
    if len(indices) != len(cards):
        raise ValidationError(
            f"expected {len(cards)} indices (one per set), got {len(indices)}"
        )
    flat = 0
    for idx, card in zip(indices, cards):
        idx = int(idx)
        if not 0 <= idx < card:
            raise ValidationError(f"index {idx} out of range for set of size {card}")
        flat = flat * card + idx
    return flat


def flat_to_tuple(flat: int, cardinalities: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`tuple_to_flat`.

    Examples
    --------
    >>> flat_to_tuple(6, (3, 4))
    (1, 2)
    """
    cards = check_cardinalities(cardinalities)
    total = int_prod(cards)
    flat = int(flat)
    if not 0 <= flat < total:
        raise ValidationError(f"flat index {flat} out of range for {cards} ({total} combos)")
    indices = []
    for card in reversed(cards):
        indices.append(flat % card)
        flat //= card
    return tuple(reversed(indices))


def flat_to_set_labels(labels: np.ndarray, cardinalities: Sequence[int]) -> np.ndarray:
    """:func:`flat_to_tuple` over an array: the ``(n, p)`` per-set labels.

    Row ``i`` holds the per-set protocentroid indices of flat label
    ``labels[i]`` — the ``set_labels`` every protocentroid update takes.

    Examples
    --------
    >>> import numpy as np
    >>> flat_to_set_labels(np.array([6, 0]), (3, 4)).tolist()
    [[1, 2], [0, 0]]
    """
    return np.stack(np.unravel_index(labels, tuple(cardinalities)), axis=1)


def khatri_rao_combine(
    thetas: Sequence[np.ndarray], aggregator: "Aggregator | str" = "sum"
) -> np.ndarray:
    """Materialize all centroids from ``p`` sets of protocentroids.

    Parameters
    ----------
    thetas : sequence of arrays, each of shape ``(h_q, m)``
        The protocentroid sets.  All sets must share the feature dimension.
    aggregator : str or Aggregator
        The elementwise ``⊕`` operator (``"sum"`` or ``"product"``).

    Returns
    -------
    numpy.ndarray of shape ``(h_1 · ... · h_p, m)``
        Row ``i`` is the aggregation of protocentroids indexed by
        :func:`flat_to_tuple`\\ ``(i, (h_1, ..., h_p))``.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.array([[0.0], [1.0]])
    >>> b = np.array([[10.0], [20.0], [30.0]])
    >>> khatri_rao_combine([a, b], "sum").ravel().tolist()
    [10.0, 20.0, 30.0, 11.0, 21.0, 31.0]
    """
    agg = get_aggregator(aggregator)
    if len(thetas) == 0:
        raise ValidationError("khatri_rao_combine requires at least one protocentroid set")
    mats = []
    feature_dim = None
    for q, theta in enumerate(thetas):
        # Dtype-preserving: float32 protocentroid sets materialize a float32
        # centroid grid (half the memory); other dtypes widen to float64.
        mat = as_float_array(theta)
        if mat.ndim != 2:
            raise ValidationError(
                f"protocentroid set {q} must be 2-D (h_q, m), got shape {mat.shape}"
            )
        if feature_dim is None:
            feature_dim = mat.shape[1]
        elif mat.shape[1] != feature_dim:
            raise ValidationError(
                "all protocentroid sets must share the feature dimension; "
                f"set 0 has m={feature_dim} but set {q} has m={mat.shape[1]}"
            )
        mats.append(mat)

    result = mats[0]
    for mat in mats[1:]:
        # Broadcast (k, 1, m) ⊕ (1, h, m) -> (k, h, m) and flatten in C-order,
        # preserving the tuple_to_flat contract (last set varies fastest).
        combined = agg.pair(result[:, None, :], mat[None, :, :])
        result = combined.reshape(-1, feature_dim)
    return result


def khatri_rao_rows(
    thetas: Sequence[np.ndarray],
    labels: np.ndarray,
    aggregator: "Aggregator | str" = "sum",
) -> np.ndarray:
    """The combined centroid of each flat label: ``combine(thetas)[labels]``.

    When the grid has no more rows than ``labels`` it is materialized
    once and gathered from; otherwise each set is gathered by its
    per-set index and the parts are combined.  Both paths pair the sets
    left to right with ``⊕`` (``((θ₁ ⊕ θ₂) ⊕ θ₃)``) on the same operands,
    so they return the same bits; the rule only keeps the grid no larger
    than the output.

    Examples
    --------
    >>> import numpy as np
    >>> a = np.array([[0.0], [1.0]])
    >>> b = np.array([[10.0], [20.0], [30.0]])
    >>> khatri_rao_rows([a, b], np.array([5, 0]), "sum").ravel().tolist()
    [31.0, 10.0]
    """
    agg = get_aggregator(aggregator)
    labels = np.asarray(labels)
    cardinalities = tuple(theta.shape[0] for theta in thetas)
    if int_prod(cardinalities) <= labels.size:
        return khatri_rao_combine(thetas, agg)[labels]
    set_indices = np.unravel_index(labels, cardinalities)
    return agg.combine([theta[idx] for theta, idx in zip(thetas, set_indices)])


def khatri_rao_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-wise Khatri-Rao (matching-columns Kronecker) matrix product.

    This is the classical operator [Khatri & Rao, 1968] the paradigm is named
    after: for ``A ∈ R^{i×r}`` and ``B ∈ R^{j×r}`` the result is the
    ``(i·j) × r`` matrix whose ``c``-th column is ``A[:, c] ⊗ B[:, c]``.

    Examples
    --------
    >>> import numpy as np
    >>> A = np.array([[1.0, 2.0]])
    >>> B = np.array([[3.0, 4.0], [5.0, 6.0]])
    >>> khatri_rao_product(A, B)
    array([[ 3.,  8.],
           [ 5., 12.]])
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise ValidationError("khatri_rao_product requires 2-D matrices")
    if A.shape[1] != B.shape[1]:
        raise ValidationError(
            f"column counts must match, got {A.shape[1]} and {B.shape[1]}"
        )
    i, r = A.shape
    j, _ = B.shape
    return (A[:, None, :] * B[None, :, :]).reshape(i * j, r)
