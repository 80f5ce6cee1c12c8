"""Shared scaffolding for (Khatri-Rao) deep clustering algorithms.

The training recipe follows the paper (Sections 3, 7, 9.1):

1. **Pretrain** an autoencoder on reconstruction loss — dense for the
   baselines, Hadamard-compressed with the rank schedule of Section 9.1 for
   the Khatri-Rao variants;
2. **Initialize** latent centroids with k-Means (baselines) or latent
   protocentroids with Khatri-Rao-k-Means (KR variants — Section 7,
   "Initialization");
3. **Jointly optimize** ``L_cluster + w_rec · L_rec`` over autoencoder and
   centroid/protocentroid parameters with batch-wise ADAM.

A base method only provides its clustering loss (DKM or IDEC; DEC is IDEC
without the reconstruction term).  Its Khatri-Rao variant is the base
method with :class:`KhatriRaoVariant` mixed in first: one
reparameterization (Section 7) for every centroid-based method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    check_array,
    check_cardinalities,
    check_positive_int,
    check_random_state,
    int_prod,
)
from ..autodiff import Tensor, no_grad
from ..core import KhatriRaoKMeans, KMeans
from ..core._distances import assign_to_nearest
from ..exceptions import (
    NotFittedError,
    ValidationError,
    relabel_convergence_warnings,
)
from ..linalg import get_aggregator
from ..nn import Adam, Autoencoder, Trainer, build_autoencoder
from ..nn.autoencoder import SMALL_HIDDEN_DIMS
from .compression import fit_compressed_autoencoder
from .losses import materialize_centroid_tensor

__all__ = ["BaseDeepClustering", "DeepClusteringResult"]


@dataclass
class DeepClusteringResult:
    """Summary of a deep-clustering run (for reports and benchmarks)."""

    labels: np.ndarray
    inertia: float
    parameter_count: int
    dense_parameter_count: int
    pretrain_loss: List[float] = field(default_factory=list)
    clustering_loss: List[float] = field(default_factory=list)

    @property
    def parameter_ratio(self) -> float:
        """Parameters stored relative to the dense baseline architecture."""
        return self.parameter_count / max(self.dense_parameter_count, 1)


class BaseDeepClustering:
    """Common machinery for DKM/IDEC and their Khatri-Rao variants.

    Parameters
    ----------
    n_clusters : int, optional
        Number of latent centroids (baselines).  Mutually exclusive with
        ``cardinalities``.
    cardinalities : sequence of int, optional
        Protocentroid set sizes (Khatri-Rao variants); the model represents
        ``∏ h_q`` clusters with ``∑ h_q`` latent protocentroids.
    aggregator : {"sum", "product"}
        Protocentroid aggregator (paper: sum for deep clustering).
    hidden_dims : sequence of int
        Encoder widths; defaults to a small CPU-friendly preset, the paper's
        ``(1024, 512, 256, 10)`` is available via
        ``repro.nn.autoencoder.PAPER_HIDDEN_DIMS``.
    w_rec : float
        Reconstruction-loss weight (paper: 1.0).
    pretrain_epochs, clustering_epochs : int
        Paper: 150 each (1000+ for compressed pretraining); defaults are
        reduced for CPU.
    batch_size : int (paper: 512)
    pretrain_lr, clustering_lr : float (paper: 1e-3, 1e-4)
    compress_autoencoder : bool
        Hadamard-compress the autoencoder (set by the KR subclasses).
    random_state : None, int or Generator
    """

    #: subclasses set this to "dkm" or "idec" for reporting.
    loss_name: str = ""

    def __init__(
        self,
        n_clusters: Optional[int] = None,
        *,
        cardinalities: Optional[Sequence[int]] = None,
        aggregator="sum",
        hidden_dims: Sequence[int] = SMALL_HIDDEN_DIMS,
        w_rec: float = 1.0,
        pretrain_epochs: int = 30,
        clustering_epochs: int = 30,
        batch_size: int = 256,
        pretrain_lr: float = 1e-3,
        clustering_lr: float = 1e-4,
        compress_autoencoder: bool = False,
        compressed_pretrain_factor: float = 7.0,
        kmeans_n_init: int = 5,
        random_state=None,
    ) -> None:
        if (n_clusters is None) == (cardinalities is None):
            raise ValidationError(
                "provide exactly one of n_clusters or cardinalities"
            )
        self.cardinalities = (
            check_cardinalities(cardinalities) if cardinalities is not None else None
        )
        self.n_clusters = (
            check_positive_int(n_clusters, "n_clusters")
            if n_clusters is not None
            else int_prod(self.cardinalities)
        )
        self.aggregator = get_aggregator(aggregator)
        self.hidden_dims = tuple(int(d) for d in hidden_dims)
        self.w_rec = float(w_rec)
        self.pretrain_epochs = check_positive_int(pretrain_epochs, "pretrain_epochs")
        self.clustering_epochs = check_positive_int(clustering_epochs, "clustering_epochs")
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.pretrain_lr = float(pretrain_lr)
        self.clustering_lr = float(clustering_lr)
        self.compress_autoencoder = bool(compress_autoencoder)
        # The paper pretrains compressed autoencoders much longer than dense
        # ones (1000 vs 150 epochs ≈ 6.7x, Section 9.1); the default factor
        # mirrors that ratio on our reduced budgets.
        self.compressed_pretrain_factor = max(1.0, float(compressed_pretrain_factor))
        self.kmeans_n_init = check_positive_int(kmeans_n_init, "kmeans_n_init")
        self.random_state = random_state

        self.autoencoder_: Optional[Autoencoder] = None
        self.centroid_params_: Optional[List[Tensor]] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: float = np.inf
        self.pretrain_loss_: List[float] = []
        self.clustering_loss_: List[float] = []

    # ------------------------------------------------------------ subclass
    def _clustering_loss(self, Z: Tensor, M: Tensor) -> Tensor:
        raise NotImplementedError  # pragma: no cover - interface

    # ------------------------------------------------------------------ API
    @property
    def is_khatri_rao(self) -> bool:
        """Whether this model constrains centroids to a KR structure."""
        return self.cardinalities is not None

    def fit(self, X) -> "BaseDeepClustering":
        """Pretrain, initialize centroids and jointly optimize (Section 7)."""
        X = check_array(X, min_samples=self.n_clusters)
        rng = check_random_state(self.random_state)

        self.autoencoder_, self.pretrain_loss_ = self._build_and_pretrain(X, rng)
        Z = self.autoencoder_.transform(X)
        self.centroid_params_ = relabel_convergence_warnings(
            f"{type(self).__name__} latent initialization",
            self._init_centroid_params, Z, rng,
        )
        self._joint_training(X, rng)

        Z = self.autoencoder_.transform(X)
        centroids = self._centroid_matrix()
        self.labels_, distances = assign_to_nearest(Z, centroids)
        self.inertia_ = float(distances.sum())
        return self

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return cluster labels for the training data."""
        return self.fit(X).labels_

    def predict(self, X) -> np.ndarray:
        """Encode ``X`` and assign to the nearest latent centroid."""
        self._check_fitted()
        X = check_array(X)
        Z = self.autoencoder_.transform(X)
        labels, _ = assign_to_nearest(Z, self._centroid_matrix())
        return labels

    def transform(self, X) -> np.ndarray:
        """Latent representations of ``X``."""
        self._check_fitted()
        return self.autoencoder_.transform(check_array(X))

    def centroids(self) -> np.ndarray:
        """Latent centroid matrix (materialized for KR variants)."""
        self._check_fitted()
        return self._centroid_matrix()

    def parameter_count(self) -> int:
        """Scalars stored by the summary: autoencoder + centroid params."""
        self._check_fitted()
        centroid_params = sum(t.size for t in self.centroid_params_)
        return int(self.autoencoder_.parameter_count() + centroid_params)

    def dense_parameter_count(self) -> int:
        """Parameters of the uncompressed counterpart (for ratios).

        Dense autoencoder of the same architecture plus ``k`` full centroids.
        """
        self._check_fitted()
        latent_dim = self.hidden_dims[-1]
        dense_ae = self.autoencoder_.dense_parameter_count()
        return int(dense_ae + self.n_clusters * latent_dim)

    def result(self) -> DeepClusteringResult:
        """Bundle the fitted state for benchmarking/reporting."""
        self._check_fitted()
        return DeepClusteringResult(
            labels=self.labels_,
            inertia=self.inertia_,
            parameter_count=self.parameter_count(),
            dense_parameter_count=self.dense_parameter_count(),
            pretrain_loss=self.pretrain_loss_,
            clustering_loss=self.clustering_loss_,
        )

    # ------------------------------------------------------------ internals
    def _check_fitted(self) -> None:
        if self.autoencoder_ is None or self.centroid_params_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet; call fit first")

    def _build_and_pretrain(
        self, X: np.ndarray, rng: np.random.Generator
    ) -> Tuple[Autoencoder, List[float]]:
        if self.compress_autoencoder:
            autoencoder, history = fit_compressed_autoencoder(
                X,
                hidden_dims=self.hidden_dims,
                epochs=max(1, int(self.pretrain_epochs * self.compressed_pretrain_factor)),
                batch_size=self.batch_size,
                learning_rate=self.pretrain_lr,
                random_state=rng,
            )
            return autoencoder, history
        autoencoder = build_autoencoder(X.shape[1], self.hidden_dims, random_state=rng)
        history = autoencoder.pretrain(
            X,
            epochs=self.pretrain_epochs,
            batch_size=self.batch_size,
            learning_rate=self.pretrain_lr,
            random_state=rng,
        )
        return autoencoder, history

    def _init_centroid_params(
        self, Z: np.ndarray, rng: np.random.Generator
    ) -> List[Tensor]:
        if self.is_khatri_rao:
            model = KhatriRaoKMeans(
                self.cardinalities,
                aggregator=self.aggregator,
                n_init=self.kmeans_n_init,
                random_state=rng,
            ).fit(Z)
            return [Tensor(theta, requires_grad=True) for theta in model.protocentroids_]
        model = KMeans(
            self.n_clusters, n_init=self.kmeans_n_init, random_state=rng
        ).fit(Z)
        return [Tensor(model.cluster_centers_, requires_grad=True)]

    def _centroid_tensor(self) -> Tensor:
        if self.is_khatri_rao:
            return materialize_centroid_tensor(self.centroid_params_, self.aggregator)
        return self.centroid_params_[0]

    def _centroid_matrix(self) -> np.ndarray:
        with no_grad():
            return self._centroid_tensor().numpy().copy()

    def _joint_training(self, X: np.ndarray, rng: np.random.Generator) -> None:
        parameters = self.autoencoder_.parameters() + list(self.centroid_params_)
        optimizer = Adam(parameters, self.clustering_lr)
        trainer = Trainer(optimizer, batch_size=self.batch_size, random_state=rng)

        def loss_fn(batch_indices: np.ndarray) -> Tensor:
            batch = Tensor(X[batch_indices])
            Z = self.autoencoder_.encode(batch)
            reconstruction = self.autoencoder_.decode(Z)
            difference = reconstruction - batch
            reconstruction_loss = (difference * difference).mean()
            cluster_loss = self._clustering_loss(Z, self._centroid_tensor())
            return cluster_loss + self.w_rec * reconstruction_loss

        self.clustering_loss_ = trainer.run(
            X.shape[0], loss_fn, epochs=self.clustering_epochs
        )


class KhatriRaoVariant:
    """The Khatri-Rao reparameterization of a centroid-based deep method.

    Mixed in ahead of a base method (``class KhatriRaoDKM(KhatriRaoVariant,
    DKM)``): ``cardinalities`` protocentroid sets replace the latent
    centroids, ``aggregator`` combines them (paper: sum), and the
    autoencoder is Hadamard-compressed unless ``compress_autoencoder`` is
    False (Section 7 compresses both Θ_μ and Θ_α; False ablates it).  The
    base method's loss, ``alpha`` and other parameters carry over.
    """

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        aggregator="sum",
        compress_autoencoder: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(
            None,
            cardinalities=cardinalities,
            aggregator=aggregator,
            compress_autoencoder=compress_autoencoder,
            **kwargs,
        )
