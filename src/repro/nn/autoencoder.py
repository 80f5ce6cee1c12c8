"""Autoencoders for deep clustering (paper Sections 3 and 9.1).

The paper's architecture is a fully-connected encoder
``m - 1024 - 512 - 256 - 10`` with a mirrored decoder, LeakyReLU activations
between layers and linear output layers.  Khatri-Rao deep clustering swaps
the *inner* layers for :class:`~repro.nn.HadamardLinear` (the input and
output layers stay dense, which "improves performance" — Section 9.1) and
grows the factor ranks until the compressed autoencoder matches the dense
one's reconstruction loss (the rank-doubling schedule, implemented in
:mod:`repro.deep.compression`).

The rank rule lives here once (:func:`rank_cap`, :func:`default_ranks`);
:func:`build_autoencoder` and the rank schedule both read it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .._validation import check_positive_int, check_random_state
from ..autodiff import Tensor, no_grad
from ..exceptions import ValidationError
from .layers import Activation, HadamardLinear, Linear, Module, Sequential
from .optim import Adam
from .training import Trainer

__all__ = ["Autoencoder", "build_autoencoder", "default_ranks", "rank_cap"]

#: The paper's encoder widths (excluding the data dimension m).
PAPER_HIDDEN_DIMS = (1024, 512, 256, 10)
#: A small preset keeping CPU-only tests fast; same depth structure.
SMALL_HIDDEN_DIMS = (64, 32, 10)
#: Starting rank of a compressed layer (the paper's rank-10 defaults).
BASE_RANK = 10


def rank_cap(d: int, m: int, q: int) -> int:
    """Largest rank (at least 1) at which a ``q``-factor Hadamard ``d → m``
    layer, ``q·r·(d + m)`` scalars, stores no more than the dense ``d·m``."""
    return max(1, (d * m) // (q * (d + m)))


def default_ranks(
    input_dim: int,
    hidden_dims: Sequence[int],
    *,
    base_rank: int = BASE_RANK,
    n_hadamard_factors: int = 2,
) -> List[int]:
    """Starting per-layer ranks of the compressed encoder.

    The paper starts from rank-10-style defaults on its large
    ``m-1024-512-256-10`` architecture.  For arbitrary (possibly tiny)
    presets each rank is also clipped to ``min(d, m)`` and to
    :func:`rank_cap`, so the factorization never outgrows the dense layer.

    Examples
    --------
    >>> default_ranks(100, (20, 5))
    [8, 2]
    >>> default_ranks(784, (1024, 512, 256, 10))
    [10, 10, 10, 4]
    """
    dims = [int(input_dim)] + [int(d) for d in hidden_dims]
    q = max(1, int(n_hadamard_factors))
    return [
        max(1, min(base_rank, d, m, rank_cap(d, m, q)))
        for d, m in zip(dims, dims[1:])
    ]


class Autoencoder(Module):
    """Encoder/decoder pair with a shared training loop.

    Parameters
    ----------
    encoder, decoder : Sequential
        The decoder must mirror the encoder's outer dimensions.
    """

    def __init__(self, encoder: Sequential, decoder: Sequential) -> None:
        self.encoder = encoder
        self.decoder = decoder

    def encode(self, x) -> Tensor:
        return self.encoder(x)

    def decode(self, z) -> Tensor:
        return self.decoder(z)

    def forward(self, x: Tensor) -> Tensor:
        return self.decoder(self.encoder(x))

    def parameters(self) -> List[Tensor]:
        return self.encoder.parameters() + self.decoder.parameters()

    def dense_parameter_count(self) -> int:
        """Parameters of the uncompressed architecture (for ratios)."""
        return self.encoder.dense_parameter_count() + self.decoder.dense_parameter_count()

    def reconstruction_loss(self, X: np.ndarray, *, batch_size: int = 2048) -> float:
        """Mean squared reconstruction error over ``X`` (no gradients)."""
        X = np.asarray(X, dtype=float)
        total = 0.0
        with no_grad():
            for start in range(0, X.shape[0], batch_size):
                batch = X[start : start + batch_size]
                reconstruction = self.forward(Tensor(batch)).numpy()
                total += float(np.sum((reconstruction - batch) ** 2))
        return total / X.size

    def pretrain(
        self,
        X: np.ndarray,
        *,
        epochs: int = 50,
        batch_size: int = 512,
        learning_rate: float = 1e-3,
        random_state=None,
    ) -> List[float]:
        """Reconstruction pretraining with ADAM (paper: lr 1e-3).

        Returns the per-epoch loss history.
        """
        X = np.asarray(X, dtype=float)
        optimizer = Adam(self.parameters(), learning_rate)
        trainer = Trainer(optimizer, batch_size=batch_size, random_state=random_state)

        def loss_fn(batch_indices: np.ndarray):
            batch = Tensor(X[batch_indices])
            reconstruction = self.forward(batch)
            difference = reconstruction - batch
            return (difference * difference).mean()

        return trainer.run(X.shape[0], loss_fn, epochs=epochs)

    def transform(self, X: np.ndarray, *, batch_size: int = 2048) -> np.ndarray:
        """Latent representations of ``X`` (no gradients)."""
        X = np.asarray(X, dtype=float)
        chunks = []
        with no_grad():
            for start in range(0, X.shape[0], batch_size):
                chunks.append(self.encode(Tensor(X[start : start + batch_size])).numpy())
        return np.vstack(chunks)


def _make_stack(
    dims: Sequence[int],
    *,
    compressed_mask: Sequence[bool],
    ranks: Sequence[int],
    n_hadamard_factors: int,
    rng: np.random.Generator,
) -> Sequential:
    """Build a stack of (Hadamard)Linear + LeakyReLU layers.

    ``compressed_mask[i]`` selects a :class:`HadamardLinear` for layer ``i``;
    the final layer is linear (no activation), as in the paper's setup.
    """
    layers: List[Module] = []
    n_layers = len(dims) - 1
    for i in range(n_layers):
        in_dim, out_dim = dims[i], dims[i + 1]
        if compressed_mask[i]:
            layer: Module = HadamardLinear(
                in_dim, out_dim, [ranks[i]] * n_hadamard_factors, random_state=rng
            )
        else:
            layer = Linear(in_dim, out_dim, random_state=rng)
        layers.append(layer)
        if i < n_layers - 1:
            layers.append(Activation("leaky_relu"))
    return Sequential(layers)


def build_autoencoder(
    input_dim: int,
    hidden_dims: Sequence[int] = SMALL_HIDDEN_DIMS,
    *,
    compressed: bool = False,
    ranks: Optional[Sequence[int]] = None,
    n_hadamard_factors: int = 2,
    compress_boundary_layers: bool = False,
    random_state=None,
) -> Autoencoder:
    """Construct a (optionally compressed) mirrored autoencoder.

    Parameters
    ----------
    input_dim : int
        Data dimension ``m``.
    hidden_dims : sequence of int
        Encoder widths after the input; the paper uses
        ``(1024, 512, 256, 10)``, the default is a small CPU preset.  The
        last entry is the latent dimension.
    compressed : bool
        Replace inner layers by :class:`HadamardLinear` (Khatri-Rao variant).
    ranks : sequence of int, optional
        Per-layer factor ranks for the encoder stack; mirrored for the
        decoder.  Defaults to :func:`default_ranks`.
    n_hadamard_factors : int
        ``q`` of Eq. 6 (paper default 2).
    compress_boundary_layers : bool
        The paper leaves the input and output layers uncompressed; set True
        to compress them as well (ablation).
    random_state : None, int or Generator

    Examples
    --------
    >>> ae = build_autoencoder(50, (16, 4), random_state=0)
    >>> import numpy as np
    >>> ae.forward(Tensor(np.zeros((3, 50)))).shape
    (3, 50)
    """
    input_dim = check_positive_int(input_dim, "input_dim")
    dims = [input_dim] + [check_positive_int(d, "hidden_dim") for d in hidden_dims]
    if len(dims) < 2:
        raise ValidationError("hidden_dims must contain at least the latent dimension")
    rng = check_random_state(random_state)
    n_layers = len(dims) - 1
    encoder_mask = [compressed] * n_layers
    decoder_mask = [compressed] * n_layers
    if compressed and not compress_boundary_layers:
        encoder_mask[0] = False  # input layer stays dense
        decoder_mask[-1] = False  # output layer stays dense
    if ranks is None:
        ranks = default_ranks(input_dim, dims[1:], n_hadamard_factors=n_hadamard_factors)
    elif compressed and len(ranks) != n_layers:
        raise ValidationError(
            f"ranks needs one entry per encoder layer ({n_layers}), "
            f"got {len(ranks)}",
            field="ranks",
        )

    encoder = _make_stack(
        dims,
        compressed_mask=encoder_mask,
        ranks=list(ranks),
        n_hadamard_factors=n_hadamard_factors,
        rng=rng,
    )
    decoder = _make_stack(
        dims[::-1],
        compressed_mask=decoder_mask,
        ranks=list(ranks)[::-1],
        n_hadamard_factors=n_hadamard_factors,
        rng=rng,
    )
    return Autoencoder(encoder, decoder)
