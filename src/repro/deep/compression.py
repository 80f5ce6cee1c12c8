"""Compressed-autoencoder pretraining with the rank schedule of Section 9.1.

The paper's procedure: start each Hadamard factor at rank-10-style
defaults, pretrain the compressed autoencoder, and if its reconstruction
loss exceeds the dense autoencoder's, "iteratively multiply the rank by 2,
3, ..." — retraining with additional epochs after each increase — until
the compressed loss falls under the dense one (or a cap is reached, since
a laptop-scale budget must terminate).  Input and output layers stay
dense, which "improves performance".  The starting ranks and the per-layer
cap come from the one rank rule in :mod:`repro.nn.autoencoder`
(:func:`~repro.nn.autoencoder.default_ranks`,
:func:`~repro.nn.autoencoder.rank_cap`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_positive_int, check_random_state
from ..nn import Autoencoder, build_autoencoder
from ..nn.autoencoder import default_ranks, rank_cap

__all__ = ["fit_compressed_autoencoder"]

#: Fraction of ``epochs`` retrained after each rank increase (the paper adds
#: 500 epochs to its 1000-epoch budget per increase).
EXTRA_EPOCH_FACTOR = 0.5
#: A compressed candidate is accepted once its reconstruction loss is
#: within this factor of the dense reference's.
LOSS_TOLERANCE = 1.05


def fit_compressed_autoencoder(
    X: np.ndarray,
    *,
    hidden_dims: Sequence[int],
    epochs: int = 30,
    batch_size: int = 256,
    learning_rate: float = 1e-3,
    n_hadamard_factors: int = 2,
    max_rank_multiplier: int = 4,
    dense_reference: Optional[Autoencoder] = None,
    random_state=None,
) -> Tuple[Autoencoder, List[float]]:
    """Pretrain a Hadamard-compressed autoencoder via the rank schedule.

    Parameters
    ----------
    X : array of shape (n, m)
    hidden_dims : encoder widths (latent last).
    epochs, batch_size, learning_rate : pretraining configuration.
    n_hadamard_factors : ``q`` of Eq. 6 (paper default 2).
    max_rank_multiplier : cap on the rank multiplier (ensures termination).
    dense_reference : optional pre-trained dense autoencoder whose
        reconstruction loss acts as the acceptance threshold; trained here
        if omitted.

    Returns
    -------
    (autoencoder, loss_history)
        The accepted compressed autoencoder and its concatenated pretraining
        loss history across rank attempts.
    """
    X = np.asarray(X, dtype=float)
    epochs = check_positive_int(epochs, "epochs")
    rng = check_random_state(random_state)

    if dense_reference is None:
        dense_reference = build_autoencoder(
            X.shape[1], hidden_dims, random_state=rng
        )
        dense_reference.pretrain(
            X,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            random_state=rng,
        )
    dense_loss = dense_reference.reconstruction_loss(X)

    base = default_ranks(
        X.shape[1], hidden_dims, n_hadamard_factors=n_hadamard_factors
    )
    # Never let a rank bump push a layer past its dense parameter count.
    dims = [X.shape[1]] + [int(d) for d in hidden_dims]
    caps = [rank_cap(d, m, n_hadamard_factors) for d, m in zip(dims, dims[1:])]
    history: List[float] = []
    best: Optional[Autoencoder] = None
    best_loss = np.inf
    for multiplier in range(1, max_rank_multiplier + 1):
        ranks = [min(r * multiplier, cap) for r, cap in zip(base, caps)]
        candidate = build_autoencoder(
            X.shape[1],
            hidden_dims,
            compressed=True,
            ranks=ranks,
            n_hadamard_factors=n_hadamard_factors,
            random_state=rng,
        )
        run_epochs = epochs if multiplier == 1 else max(1, int(EXTRA_EPOCH_FACTOR * epochs))
        history.extend(
            candidate.pretrain(
                X,
                epochs=run_epochs,
                batch_size=batch_size,
                learning_rate=learning_rate,
                random_state=rng,
            )
        )
        candidate_loss = candidate.reconstruction_loss(X)
        if candidate_loss < best_loss:
            best, best_loss = candidate, candidate_loss
        if candidate_loss <= LOSS_TOLERANCE * dense_loss:
            return candidate, history
    # Cap reached: return the best compressed model found.
    return best, history
