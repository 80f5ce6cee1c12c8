"""Improved Deep Embedded Clustering (IDEC) [Guo et al., 2017] and its
Khatri-Rao variant.

IDEC aligns a Student's-t model of the latent distribution with a sharpened
target distribution through a KL divergence (paper Eq. 4, ``a = 1``), while
keeping the reconstruction loss as a structure-preserving regularizer.
``KhatriRaoIDEC`` applies the Section 7 reparameterizations: Khatri-Rao
latent centroids and a Hadamard-compressed autoencoder.
"""

from __future__ import annotations

from ..autodiff import Tensor
from .base import BaseDeepClustering, KhatriRaoVariant
from .losses import idec_loss

__all__ = ["IDEC", "KhatriRaoIDEC"]


class IDEC(BaseDeepClustering):
    """IDEC with an unconstrained latent centroid matrix.

    ``alpha`` is the Student's-t degree-of-freedom parameter (paper: 1).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_blobs
    >>> X, _ = make_blobs(200, n_features=8, n_clusters=4, random_state=0)
    >>> model = IDEC(4, hidden_dims=(16, 4), pretrain_epochs=2,
    ...              clustering_epochs=2, random_state=0).fit(X)
    >>> model.centroids().shape
    (4, 4)
    """

    loss_name = "idec"

    def __init__(self, n_clusters: int, *, alpha: float = 1.0, **kwargs) -> None:
        super().__init__(n_clusters=n_clusters, **kwargs)
        self.alpha = float(alpha)

    def _clustering_loss(self, Z: Tensor, M: Tensor) -> Tensor:
        return idec_loss(Z, M, alpha=self.alpha)


class KhatriRaoIDEC(KhatriRaoVariant, IDEC):
    """Khatri-Rao IDEC: protocentroid centroids + compressed autoencoder.

    :class:`IDEC` reparameterized by :class:`~repro.deep.base.KhatriRaoVariant`.
    """
