"""Differentiable clustering losses: DKM (Eq. 3) and IDEC (Eq. 4).

Both losses operate on a latent batch ``Z`` and a centroid tensor ``M``;
the Khatri-Rao variants simply pass a centroid tensor *materialized
differentiably from protocentroids* (:func:`materialize_centroid_tensor`),
so gradients flow back into the protocentroid sets — exactly the
reparameterization the paper describes in Section 7.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..autodiff import Tensor, softmax
from ..exceptions import ValidationError
from ..linalg import Aggregator, get_aggregator

__all__ = [
    "pairwise_sq_distances",
    "materialize_centroid_tensor",
    "dkm_loss",
    "idec_loss",
    "idec_target_distribution",
]


def pairwise_sq_distances(Z: Tensor, M: Tensor) -> Tensor:
    """Differentiable squared distances ``(n, k)`` between rows of Z and M."""
    if Z.ndim != 2 or M.ndim != 2:
        raise ValidationError("Z and M must be 2-D tensors")
    difference = Z.expand_dims(1) - M.expand_dims(0)  # (n, k, d)
    return (difference * difference).sum(axis=2)


def materialize_centroid_tensor(
    thetas: Sequence[Tensor], aggregator="sum"
) -> Tensor:
    """Differentiably combine protocentroid tensors into a centroid tensor.

    Mirrors :func:`repro.linalg.khatri_rao_combine` but on the autodiff tape:
    the output row ordering is C-order over the tuple indices, so flat labels
    are interchangeable between the numpy and autodiff code paths.
    """
    agg: Aggregator = get_aggregator(aggregator)
    if not thetas:
        raise ValidationError("at least one protocentroid tensor is required")
    result = thetas[0]
    feature_dim = thetas[0].shape[1]
    for theta in thetas[1:]:
        left = result.expand_dims(1)  # (k, 1, d)
        right = theta.expand_dims(0)  # (1, h, d)
        result = agg.pair(left, right).reshape(-1, feature_dim)
    return result


def dkm_loss(Z: Tensor, M: Tensor, *, alpha: float = 1000.0) -> Tensor:
    """Deep-k-Means clustering loss (paper Eq. 3).

    ``L = 1/n Σ_z Σ_i ||z - μ_i||² softmax_i(-α ||z - μ_i||²)`` — a softly
    assigned k-means objective whose temperature ``α`` (paper default 1000)
    approaches hard assignments.
    """
    distances = pairwise_sq_distances(Z, M)
    weights = softmax(distances * (-float(alpha)), axis=1)
    return (distances * weights).sum(axis=1).mean()


def _student_t_q(distances: Tensor, *, alpha: float = 1.0) -> Tensor:
    """Student's-t soft assignment ``q`` of DEC/IDEC from squared distances."""
    base = (distances * (1.0 / alpha) + 1.0) ** (-(alpha + 1.0) / 2.0)
    return base / base.sum(axis=1, keepdims=True)


def idec_target_distribution(q: np.ndarray) -> np.ndarray:
    """IDEC/DEC target distribution ``p`` from soft assignments ``q``.

    ``p_li = (q_li² / Σ_t q_ti) / Σ_j (q_lj² / Σ_t q_tj)`` — sharpens
    assignments while normalizing by soft cluster frequencies.  Treated as a
    constant during backpropagation (computed from detached ``q``).
    """
    q = np.asarray(q, dtype=float)
    weight = q**2 / np.maximum(q.sum(axis=0, keepdims=True), 1e-12)
    return weight / weight.sum(axis=1, keepdims=True)


def idec_loss(Z: Tensor, M: Tensor, *, alpha: float = 1.0) -> Tensor:
    """IDEC clustering loss (paper Eq. 4): ``KL(p || q)``.

    ``q`` is the Student's-t soft assignment; the target ``p`` is computed
    from the current (detached) ``q`` as in the IDEC algorithm.
    """
    distances = pairwise_sq_distances(Z, M)
    q = _student_t_q(distances, alpha=alpha)
    p = idec_target_distribution(q.numpy())
    # KL(p || q) = Σ p (log p - log q); p is a constant w.r.t. the tape.
    p_tensor = Tensor(p)
    log_p = Tensor(np.log(np.maximum(p, 1e-12)))
    kl = (p_tensor * (log_p - q.clip_min(1e-12).log())).sum(axis=1)
    return kl.mean()
