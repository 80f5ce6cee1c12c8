"""Deep clustering and its Khatri-Rao extensions (paper Sections 3, 4.2, 7).

* :class:`DKM` / :class:`IDEC` / :class:`DEC` — the autoencoder-based
  baselines [Fard et al., 2020; Guo et al., 2017; Xie et al., 2016]
  reimplemented on the :mod:`repro.autodiff` substrate (DEC is IDEC
  without the reconstruction term);
* :class:`KhatriRaoDKM` / :class:`KhatriRaoIDEC` / :class:`KhatriRaoDEC`
  — each base method under the one Khatri-Rao reparameterization
  (``deep.base.KhatriRaoVariant``): latent centroids constrained to a
  Khatri-Rao aggregation of protocentroids, autoencoder weights
  Hadamard-compressed (Eq. 6, :class:`repro.nn.HadamardLinear`, the one
  implementation of the product, its initialization and its fit to a dense
  weight), protocentroids initialized by
  :class:`~repro.core.KhatriRaoKMeans` (Section 7);
* :func:`fit_compressed_autoencoder` — the rank-doubling pretraining
  schedule of Section 9.1 (the rank rule itself is
  :func:`repro.nn.autoencoder.default_ranks`).
"""

from .base import DeepClusteringResult
from .compression import fit_compressed_autoencoder
from .dec import DEC, KhatriRaoDEC
from .dkm import DKM, KhatriRaoDKM
from .idec import IDEC, KhatriRaoIDEC
from .losses import dkm_loss, idec_loss, materialize_centroid_tensor, pairwise_sq_distances

__all__ = [
    "DKM",
    "KhatriRaoDKM",
    "IDEC",
    "KhatriRaoIDEC",
    "DEC",
    "KhatriRaoDEC",
    "DeepClusteringResult",
    "fit_compressed_autoencoder",
    "dkm_loss",
    "idec_loss",
    "pairwise_sq_distances",
    "materialize_centroid_tensor",
]
