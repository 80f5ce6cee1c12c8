"""Deep Embedded Clustering (DEC) [Xie et al., 2016] and its Khatri-Rao
variant.

DEC is IDEC's predecessor (paper Section 2): the same KL-divergence
clustering loss, but *without* the reconstruction term — after pretraining,
the decoder is discarded and only the encoder and centroids are optimized.
The paper extends IDEC; DEC is included here as the natural additional
baseline (``w_rec = 0`` in Eq. 2) and to ablate the role of the
reconstruction regularizer in the Khatri-Rao setting.
"""

from __future__ import annotations

from .base import KhatriRaoVariant
from .idec import IDEC

__all__ = ["DEC", "KhatriRaoDEC"]


class DEC(IDEC):
    """DEC: KL-divergence deep clustering without reconstruction loss.

    :class:`~repro.deep.IDEC` with ``w_rec = 0`` forced — the encoder is
    free to distort the latent space in favour of cluster separation.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import make_blobs
    >>> X, _ = make_blobs(200, n_features=8, n_clusters=4, random_state=0)
    >>> model = DEC(4, hidden_dims=(16, 4), pretrain_epochs=2,
    ...             clustering_epochs=2, random_state=0).fit(X)
    >>> model.labels_.shape
    (200,)
    """

    loss_name = "dec"

    def __init__(self, n_clusters: int, **kwargs) -> None:
        kwargs["w_rec"] = 0.0
        super().__init__(n_clusters, **kwargs)


class KhatriRaoDEC(KhatriRaoVariant, DEC):
    """Khatri-Rao DEC: protocentroid centroids, compressed autoencoder,
    no reconstruction loss during the clustering phase."""
