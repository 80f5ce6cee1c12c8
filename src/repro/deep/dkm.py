"""Deep-k-Means (DKM) [Fard et al., 2020] and its Khatri-Rao variant.

DKM softly assigns latent points to centroids through a softmax over
negative squared distances (paper Eq. 3, temperature ``a = 1000``).
``KhatriRaoDKM`` constrains the latent centroids to a Khatri-Rao aggregation
of protocentroids and Hadamard-compresses the autoencoder (Section 7).
"""

from __future__ import annotations

from ..autodiff import Tensor
from .base import BaseDeepClustering, KhatriRaoVariant
from .losses import dkm_loss

__all__ = ["DKM", "KhatriRaoDKM"]


class DKM(BaseDeepClustering):
    """Deep-k-Means with an unconstrained latent centroid matrix.

    See :class:`~repro.deep.base.BaseDeepClustering` for the shared
    parameters; ``alpha`` is the softmax temperature (paper default 1000).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_blobs
    >>> X, _ = make_blobs(200, n_features=8, n_clusters=4, random_state=0)
    >>> model = DKM(4, hidden_dims=(16, 4), pretrain_epochs=2,
    ...             clustering_epochs=2, random_state=0).fit(X)
    >>> model.labels_.shape
    (200,)
    """

    loss_name = "dkm"

    def __init__(self, n_clusters: int, *, alpha: float = 1000.0, **kwargs) -> None:
        super().__init__(n_clusters=n_clusters, **kwargs)
        self.alpha = float(alpha)

    def _clustering_loss(self, Z: Tensor, M: Tensor) -> Tensor:
        return dkm_loss(Z, M, alpha=self.alpha)


class KhatriRaoDKM(KhatriRaoVariant, DKM):
    """Khatri-Rao DKM: protocentroid centroids + compressed autoencoder.

    :class:`DKM` reparameterized by :class:`~repro.deep.base.KhatriRaoVariant`.
    """
