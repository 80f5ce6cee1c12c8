"""Layers: dense, Hadamard-compressed dense, activations and containers.

The :class:`HadamardLinear` layer is the building block of Khatri-Rao deep
clustering's autoencoder compression (paper Eq. 6): its weight matrix is

    W = (A_1 B_1) ⊙ (A_2 B_2) ⊙ ... ⊙ (A_q B_q)

with trainable low-rank factors.  Gradients flow through the product via the
autodiff tape, so the layer drops into any :class:`Sequential` unchanged.
It is the one implementation of Eq. 6 in the package: the product, the
factor initialization and the fit to a dense weight
(:meth:`HadamardLinear.initialize_from_dense`) all live here.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from .._validation import check_positive_int, check_random_state
from ..autodiff import Tensor
from ..autodiff.functional import affine, leaky_relu, relu, sigmoid, tanh
from ..autodiff.tensor import _set_grad_enabled
from ..exceptions import ValidationError
from .optim import Adam

__all__ = ["Module", "Linear", "HadamardLinear", "Activation", "Sequential"]

_ACTIVATIONS: Dict[str, Callable[[Tensor], Tensor]] = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "identity": lambda x: x,
}


class Module:
    """Base class: anything with parameters and a forward pass."""

    def parameters(self) -> List[Tensor]:
        """Trainable tensors of this module (and its children)."""
        return []

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return self.forward(x)

    def parameter_count(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()


def _glorot_std(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(2.0 / (fan_in + fan_out)))


class Linear(Module):
    """Dense layer ``y = x W + b`` with Glorot-normal initialization.

    Parameters
    ----------
    in_features, out_features : int
    bias : bool
    random_state : None, int or Generator
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        random_state=None,
    ) -> None:
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        rng = check_random_state(random_state)
        std = _glorot_std(in_features, out_features)
        self.weight = Tensor(
            rng.normal(0.0, std, size=(in_features, out_features)), requires_grad=True
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.weight, self.bias)

    def parameters(self) -> List[Tensor]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def dense_parameter_count(self) -> int:
        """Parameters an uncompressed layer of this shape stores."""
        count = self.in_features * self.out_features
        if self.bias is not None:
            count += self.out_features
        return count

    def set_weight(self, weight: np.ndarray) -> None:
        """Overwrite the weight matrix (used to copy pretrained layers)."""
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (self.in_features, self.out_features):
            raise ValidationError(
                f"weight must have shape {(self.in_features, self.out_features)}, "
                f"got {weight.shape}"
            )
        self.weight.data[...] = weight


class HadamardLinear(Module):
    """Compressed dense layer with Hadamard-decomposed weight (Eq. 6).

    The effective weight ``W = ∏⊙ (A_i B_i)`` is rebuilt on every forward
    pass from trainable factors ``A_i ∈ R^{in×r_i}``, ``B_i ∈ R^{r_i×out}``;
    the bias (if any) stays dense.  Parameter count is
    ``Σ r_i (in + out) [+ out]`` versus ``in·out [+ out]`` for a dense layer.

    Parameters
    ----------
    in_features, out_features : int
    ranks : sequence of int
        One rank per Hadamard factor; ``len(ranks)`` is ``q`` (paper default
        ``q = 2``, both ranks equal).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        ranks: Sequence[int],
        *,
        bias: bool = True,
        random_state=None,
    ) -> None:
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.ranks = [check_positive_int(r, "rank") for r in ranks]
        if not self.ranks:
            raise ValidationError("ranks must be non-empty")
        drawn = self._draw_factors(
            check_random_state(random_state), _glorot_std(in_features, out_features)
        )
        self.factors: List[List[Tensor]] = [
            [Tensor(A, requires_grad=True), Tensor(B, requires_grad=True)]
            for A, B in drawn
        ]
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def effective_weight(self) -> Tensor:
        """Differentiable reconstruction ``(A_1 B_1) ⊙ ... ⊙ (A_q B_q)``."""
        weight: Optional[Tensor] = None
        for A, B in self.factors:
            product = A @ B
            weight = product if weight is None else weight * product
        return weight

    def forward(self, x: Tensor) -> Tensor:
        return affine(x, self.effective_weight(), self.bias)

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for A, B in self.factors:
            params.extend((A, B))
        if self.bias is not None:
            params.append(self.bias)
        return params

    def dense_parameter_count(self) -> int:
        """Parameters the equivalent dense layer would store."""
        count = self.in_features * self.out_features
        if self.bias is not None:
            count += self.out_features
        return count

    def _draw_factors(self, rng, scale: float) -> List[tuple]:
        """Random ``(A_i, B_i)`` whose product has entry std near ``scale``.

        Each low-rank product contributes std ``scale**(1/q)``; its entries
        need std ``(scale**(2/q) / r)**(1/4)`` per factor matrix.
        """
        per_product_std = scale ** (1.0 / len(self.ranks))
        factors = []
        for r in self.ranks:
            entry_std = (per_product_std**2 / r) ** 0.25
            A = rng.normal(0.0, entry_std, size=(self.in_features, r))
            B = rng.normal(0.0, entry_std, size=(r, self.out_features))
            factors.append((A, B))
        return factors

    def initialize_from_dense(
        self, weight: np.ndarray, *, max_iter: int = 300, random_state=None
    ) -> float:
        """Warm start the factors to approximate a pretrained dense weight.

        Redraws the factors at scale ``std(weight)``, then minimizes
        ``‖effective_weight() − weight‖²`` with :class:`~repro.nn.Adam`
        (learning rate 0.02) for at most ``max_iter`` steps, stopping after
        100 steps without improvement.  The best factors are written into
        the layer's factor tensors in place; returns their squared error.
        """
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (self.in_features, self.out_features):
            raise ValidationError(
                f"weight must have shape {(self.in_features, self.out_features)}, "
                f"got {weight.shape}"
            )
        if not np.all(np.isfinite(weight)):
            raise ValidationError("weight must be finite")
        max_iter = check_positive_int(max_iter, "max_iter")
        drawn = self._draw_factors(
            check_random_state(random_state), float(np.std(weight)) or 1.0
        )
        tensors = [t for pair in self.factors for t in pair]
        for t, data in zip(tensors, (data for pair in drawn for data in pair)):
            t.data[...] = data
        optimizer = Adam(tensors, 0.02)
        target = Tensor(weight)
        best_loss, best, stall = np.inf, [t.data.copy() for t in tensors], 0
        # The fit tapes its own steps, also under ``no_grad`` or for a
        # layer built there (whose factors then do not require grad).
        with _set_grad_enabled(True):
            for t in tensors:
                t.requires_grad = True
            for _ in range(max_iter):
                optimizer.zero_grad()
                loss = ((self.effective_weight() - target) ** 2).sum()
                # ADAM is non-monotone: keep the best factors and stop only
                # after 100 steps without a meaningful improvement.
                value = float(loss.data)
                if value < best_loss * (1.0 - 1e-8):
                    best_loss, stall = value, 0
                    best = [t.data.copy() for t in tensors]
                else:
                    stall += 1
                    if stall >= 100:
                        break
                loss.backward()
                optimizer.step()
        for t, data in zip(tensors, best):
            t.data[...] = data
        return best_loss


class Activation(Module):
    """Named activation wrapper usable inside :class:`Sequential`."""

    def __init__(self, name: str) -> None:
        key = str(name).lower()
        if key not in _ACTIVATIONS:
            raise ValidationError(
                f"unknown activation {name!r}; available: {sorted(_ACTIVATIONS)}"
            )
        self.name = key
        self._fn = _ACTIVATIONS[key]

    def forward(self, x: Tensor) -> Tensor:
        return self._fn(x)


class Sequential(Module):
    """Feed-forward composition of modules."""

    def __init__(self, layers: Iterable[Module]) -> None:
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def dense_parameter_count(self) -> int:
        """Parameters an uncompressed version of this network stores."""
        total = 0
        for layer in self.layers:
            if hasattr(layer, "dense_parameter_count"):
                total += layer.dense_parameter_count()
        return total
